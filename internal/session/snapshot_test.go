package session

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/wire"
)

// snapshotOf is the test shorthand: snapshot under a fixed identity.
func snapshotOf(t *testing.T, sess *Session) *Snapshot {
	t.Helper()
	return sess.Snapshot("test-id", 12345)
}

// TestSessionSnapshotRoundTripQuick quick-checks the durability
// contract: after ANY random edit sequence, snapshot → encode → decode
// → restore yields a session whose Report is bit-identical to the live
// session's, and whose re-encoding is byte-identical (the codec is
// canonical).
func TestSessionSnapshotRoundTripQuick(t *testing.T) {
	ctx := context.Background()
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := taskPool(seed, 10)
		next := 0
		take := func() *model.Task {
			tk := pool[next%len(pool)]
			next++
			return &model.Task{Name: tk.Name + "-" + string(rune('a'+next%26)) + "x", G: tk.G,
				Deadline: tk.Deadline, Period: tk.Period}
		}
		method := []core.Method{core.FPIdeal, core.LPMax, core.LPILP}[rng.Intn(3)]
		sess, err := New(core.Options{Cores: 2 + rng.Intn(3), Method: method, FinalNPRRefinement: rng.Intn(2) == 0})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 8; step++ {
			n := sess.Len()
			switch op := rng.Intn(5); {
			case op <= 1 || n == 0:
				if err := sess.AddTask(take(), rng.Intn(n+1)); err != nil {
					t.Fatal(err)
				}
			case op == 2:
				if _, err := sess.RemoveTask(rng.Intn(n)); err != nil {
					t.Fatal(err)
				}
			case op == 3:
				if err := sess.SetPriority(rng.Intn(n), rng.Intn(n)); err != nil {
					t.Fatal(err)
				}
			default:
				if err := sess.SetCores(1 + rng.Intn(5)); err != nil {
					t.Fatal(err)
				}
			}
		}
		snap := snapshotOf(t, sess)
		enc, err := snap.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("seed=%d: decode: %v", seed, err)
		}
		reenc, err := dec.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, reenc) {
			t.Logf("seed=%d: encode(decode(enc)) != enc", seed)
			return false
		}
		if dec.ID != "test-id" || dec.LastTouch != 12345 || dec.Epoch != sess.Epoch() {
			t.Logf("seed=%d: identity fields corrupted: %+v", seed, dec)
			return false
		}
		restored, err := Restore(dec)
		if err != nil {
			t.Fatal(err)
		}
		if restored.Epoch() != sess.Epoch() {
			t.Logf("seed=%d: epoch %d != %d", seed, restored.Epoch(), sess.Epoch())
			return false
		}
		got, err := restored.Report(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sess.Report(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed=%d: restored report differs:\n got %+v\nwant %+v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSessionEpochBumpsOnEditsOnly(t *testing.T) {
	ctx := context.Background()
	ts := fixture.TaskSet()
	sess, err := New(core.Options{Cores: fixture.M, Method: core.LPILP}, ts.Tasks...)
	if err != nil {
		t.Fatal(err)
	}
	// N initial tasks: epoch 1 (construction) + N adds.
	if got, want := sess.Epoch(), uint64(1+ts.N()); got != want {
		t.Fatalf("initial epoch %d, want %d", got, want)
	}
	before := sess.Epoch()
	if _, err := sess.Report(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.TryAdmit(ctx, &model.Task{Name: "probe", G: ts.Tasks[0].G, Deadline: 100, Period: 100}, -1); err != nil {
		t.Fatal(err)
	}
	if sess.Epoch() != before {
		t.Fatalf("queries moved the epoch: %d -> %d", before, sess.Epoch())
	}
	if err := sess.SetCores(fixture.M + 1); err != nil {
		t.Fatal(err)
	}
	if sess.Epoch() <= before {
		t.Fatalf("edit did not advance the epoch: %d -> %d", before, sess.Epoch())
	}
}

func TestDecodeSnapshotRejectsCorruption(t *testing.T) {
	ts := fixture.TaskSet()
	sess, err := New(core.Options{Cores: fixture.M, Method: core.LPILP}, ts.Tasks...)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := snapshotOf(t, sess).Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must fail cleanly, never panic.
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeSnapshot(enc[:i]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", i, len(enc))
		}
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 99
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// legacySolverSnapshot returns an encoding of sess's snapshot whose
// µ-solver byte is code, as a session that chose the paper-ILP solver
// (code 1) once wrote it.
func legacySolverSnapshot(t testing.TB, sess *Session, code byte) []byte {
	t.Helper()
	snap := sess.Snapshot("legacy", 7)
	enc, err := snap.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	mcode, err := methodCode(snap.Opts.Method)
	if err != nil {
		t.Fatal(err)
	}
	// The solver byte follows the header fields Append writes first.
	head := wire.AppendString([]byte{snapshotVersion}, snap.ID)
	head = wire.AppendUvarint(head, snap.Epoch)
	head = wire.AppendZigzag(head, snap.LastTouch)
	head = wire.AppendZigzag(head, int64(snap.Opts.Cores))
	at := len(wire.AppendUvarint(head, mcode))
	if enc[at] != snapSolverCombinatorial {
		t.Fatalf("solver byte at %d is %d, want %d", at, enc[at], snapSolverCombinatorial)
	}
	enc[at] = code
	return enc
}

// TestSnapshotLegacySolverByte pins the snapshot's µ-solver byte: a
// legacy 1 restores to the analysis a fresh session of the same set
// reports, since both solvers give identical µ tables, and re-encodes
// as 0; any other code is still rejected.
func TestSnapshotLegacySolverByte(t *testing.T) {
	ctx := context.Background()
	sess, err := New(core.Options{Cores: fixture.M, Method: core.LPILP}, fixture.TaskSet().Tasks...)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshot(legacySolverSnapshot(t, sess, snapSolverPaperILP))
	if err != nil {
		t.Fatalf("legacy solver byte rejected: %v", err)
	}
	restored, err := Restore(dec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(core.Options{Cores: fixture.M, Method: core.LPILP}, fixture.TaskSet().Tasks...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("legacy snapshot reports\n%v\nfresh session\n%v", got, want)
	}
	reenc, err := dec.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if canon := legacySolverSnapshot(t, sess, snapSolverCombinatorial); !bytes.Equal(reenc, canon) {
		t.Errorf("legacy snapshot re-encodes as\n%x\nwant\n%x", reenc, canon)
	}
	if _, err := DecodeSnapshot(legacySolverSnapshot(t, sess, 2)); err == nil ||
		!strings.Contains(err.Error(), "unknown snapshot backend code 2") {
		t.Errorf("solver byte 2: err %v, want unknown snapshot backend code 2", err)
	}
}

// FuzzSessionSnapshotRoundTrip asserts the decoder never panics on
// arbitrary bytes and that every accepted payload re-encodes to a fixed
// point: encode(decode(b)) decodes again to the identical encoding.
func FuzzSessionSnapshotRoundTrip(f *testing.F) {
	ts := fixture.TaskSet()
	sess, err := New(core.Options{Cores: fixture.M, Method: core.LPILP}, ts.Tasks...)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := sess.Snapshot("fuzz-seed", 42).Append(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	empty, err := New(core.Options{Cores: 1, Method: core.FPIdeal})
	if err != nil {
		f.Fatal(err)
	}
	seed2, err := empty.Snapshot("e", -7).Append(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed2)
	f.Add([]byte{})
	f.Add([]byte{snapshotVersion})
	f.Add(legacySolverSnapshot(f, sess, snapSolverPaperILP))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		enc, err := snap.Append(nil)
		if err != nil {
			t.Fatalf("accepted snapshot fails to encode: %v", err)
		}
		again, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v", err)
		}
		enc2, err := again.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n first %x\nsecond %x", enc, enc2)
		}
	})
}
