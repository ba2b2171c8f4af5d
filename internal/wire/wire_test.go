package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendFrame(buf, FrameSnapshot, []byte("hello"))
	buf = AppendFrame(buf, FrameDelete, nil)
	buf = AppendFrame(buf, FrameDelete, []byte("id"))

	r := NewReader(bytes.NewReader(buf), 1<<20)
	typ, p, err := r.ReadFrame()
	if err != nil || typ != FrameSnapshot || string(p) != "hello" {
		t.Fatalf("frame 1: typ=%c p=%q err=%v", typ, p, err)
	}
	typ, p, err = r.ReadFrame()
	if err != nil || typ != FrameDelete || len(p) != 0 {
		t.Fatalf("frame 2: typ=%c p=%q err=%v", typ, p, err)
	}
	typ, p, err = r.ReadFrame()
	if err != nil || typ != FrameDelete || string(p) != "id" {
		t.Fatalf("frame 3: typ=%c p=%q err=%v", typ, p, err)
	}
	if _, _, err = r.ReadFrame(); err != io.EOF {
		t.Fatalf("end of stream: err=%v, want io.EOF", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	full := AppendFrame(nil, FrameSnapshot, []byte("payload"))
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]), 1<<20)
		if _, _, err := r.ReadFrame(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut=%d: err=%v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestReadFrameRejectsUnknownTypeAndOversize(t *testing.T) {
	// 'R', 'H' and 'E' tagged result, heartbeat and error frames in
	// older servers' response streams; no snapshot stream holds them.
	for _, typ := range "ZRHE" {
		r := NewReader(strings.NewReader(string(typ)+"\x00"), 1<<20)
		if _, _, err := r.ReadFrame(); err == nil || !strings.Contains(err.Error(), "unknown frame type") {
			t.Fatalf("type %c: err=%v", typ, err)
		}
	}
	big := AppendFrame(nil, FrameSnapshot, make([]byte, 100))
	r := NewReader(bytes.NewReader(big), 10)
	if _, _, err := r.ReadFrame(); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversize: err=%v", err)
	}
}

func TestPrimitivesRoundTrip(t *testing.T) {
	var b []byte
	b = AppendString(b, "scenario-1")
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendZigzag(b, -42)
	b = AppendZigzag(b, math.MaxInt64)
	b = AppendZigzag(b, math.MinInt64)
	b = append(b, 0x7f)

	d := NewDec(b)
	if s := d.String(64); s != "scenario-1" {
		t.Fatalf("String = %q", s)
	}
	if v := d.Uvarint(); v != math.MaxUint64 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := d.Zigzag(); v != -42 {
		t.Fatalf("Zigzag = %d", v)
	}
	if v := d.Zigzag(); v != math.MaxInt64 {
		t.Fatalf("Zigzag max = %d", v)
	}
	if v := d.Zigzag(); v != math.MinInt64 {
		t.Fatalf("Zigzag min = %d", v)
	}
	if v := d.Byte(); v != 0x7f {
		t.Fatalf("Byte = %#x", v)
	}
	if d.Err() != nil || d.Rest() != 0 {
		t.Fatalf("err=%v rest=%d", d.Err(), d.Rest())
	}
}

func TestDecLatchesFirstError(t *testing.T) {
	d := NewDec([]byte{0x05, 'a'}) // claims 5 bytes, has 1
	if s := d.String(64); s != "" {
		t.Fatalf("truncated String = %q", s)
	}
	first := d.Err()
	if first == nil {
		t.Fatal("no error for truncated string")
	}
	// Further decodes return zero values and keep the first error.
	if v := d.Uvarint(); v != 0 {
		t.Fatalf("Uvarint after error = %d", v)
	}
	if d.Byte() != 0 || d.Zigzag() != 0 {
		t.Fatal("decodes after error not zero")
	}
	if d.Err() != first {
		t.Fatalf("error replaced: %v", d.Err())
	}
}

func TestDecStringLimit(t *testing.T) {
	b := AppendString(nil, "abcdef")
	d := NewDec(b)
	if d.String(3); d.Err() == nil {
		t.Fatal("no error for over-limit string")
	}
}
