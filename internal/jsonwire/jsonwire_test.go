package jsonwire

import (
	"encoding/json"
	"math"
	"testing"
)

// checkValue reads data as one value with Dec and with encoding/json and
// fails unless both accept or both reject it, as a value of any kind, as
// a string and as an int64 — and decode the same string or integer when
// they accept.
func checkValue(t *testing.T, data []byte) {
	t.Helper()
	d := NewDec(data)
	d.Skip()
	gotOK := d.End() == nil
	if wantOK := json.Valid(data); gotOK != wantOK {
		t.Fatalf("Skip on %q: accepted=%v, json.Valid=%v (%v)", data, gotOK, wantOK, d.Err())
	}

	var gotS, wantS string
	d = NewDec(data)
	errS := d.Str(&gotS, "s")
	errS = firstErr(d.End(), errS)
	wantErrS := json.Unmarshal(data, &wantS)
	if (errS == nil) != (wantErrS == nil) || errS == nil && gotS != wantS {
		t.Fatalf("Str on %q: %q, %v; encoding/json: %q, %v", data, gotS, errS, wantS, wantErrS)
	}

	var gotI, wantI int64
	d = NewDec(data)
	errI := d.Int64(&gotI, "i")
	errI = firstErr(d.End(), errI)
	wantErrI := json.Unmarshal(data, &wantI)
	if (errI == nil) != (wantErrI == nil) || errI == nil && gotI != wantI {
		t.Fatalf("Int64 on %q: %d, %v; encoding/json: %d, %v", data, gotI, errI, wantI, wantErrI)
	}
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// FuzzDec pins Dec's acceptance to json.Valid and its string and integer
// readers to json.Unmarshal.
func FuzzDec(f *testing.F) {
	for _, s := range []string{
		`{"a":[1,-2.5e+3,true,false,null,"x"]}`, `"é😀𐀀\ud800x"`,
		"\"\xff\xfe \"", `"a\"\\\/\b\f\n\r\t"`, `"\u12"`, `"\x"`, `-0`, `01`, `1.`, `1e`,
		`9223372036854775807`, `-9223372036854775808`, `9223372036854775808`, `1.0`, `1e2`,
		`[1,]`, `{"a" 1}`, `{"a":1,}`, `nul`, `tru`, ` `, ``, `[]]`, `{}x`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkValue(t, data) })
}

func TestKeyIsFoldsLikeEncodingJSON(t *testing.T) {
	type target struct {
		Tasks int `json:"tasks"`
		Final int `json:"final_npr"`
	}
	keys := []string{"tasks", "Tasks", "TASKS", "taſks", "tasKs", "tasks ", "task", "tasksx", "tásks",
		"final_npr", "FINAL_NPR", "final-npr", "finalnpr", "fınal_npr", "fİnal_npr"}
	for _, key := range keys {
		var v target
		raw, _ := json.Marshal(map[string]int{key: 1})
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		if got := KeyIs([]byte(key), "tasks"); got != (v.Tasks == 1) {
			t.Errorf("KeyIs(%q, tasks) = %v, encoding/json says %v", key, got, v.Tasks == 1)
		}
		if got := KeyIs([]byte(key), "final_npr"); got != (v.Final == 1) {
			t.Errorf("KeyIs(%q, final_npr) = %v, encoding/json says %v", key, got, v.Final == 1)
		}
	}
}

func TestIntRangeAndNesting(t *testing.T) {
	var n int
	d := NewDec([]byte(`9223372036854775807`))
	if err := d.Int(&n, "n"); err != nil || n != math.MaxInt {
		t.Errorf("Int(max) = %d, %v", n, err)
	}
	depth := func(k int) []byte {
		b := make([]byte, 0, 2*k)
		for i := 0; i < k; i++ {
			b = append(b, '[')
		}
		for i := 0; i < k; i++ {
			b = append(b, ']')
		}
		return b
	}
	for _, k := range []int{maxDepth, maxDepth + 1} {
		d := NewDec(depth(k))
		d.Skip()
		if ok := d.End() == nil; ok != json.Valid(depth(k)) {
			t.Errorf("depth %d: accepted=%v, json.Valid disagrees", k, ok)
		}
	}
}
