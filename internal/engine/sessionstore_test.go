package engine_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/session"
	"repro/internal/wire"
)

// newSnapshot builds a snapshot of the Figure 1 example under the given
// identity, with extraEdits core bumps so callers can control the epoch.
func newSnapshot(t *testing.T, id string, lastTouch int64, extraEdits int) *session.Snapshot {
	t.Helper()
	sess, err := session.New(core.Options{Cores: fixture.M, Method: core.LPILP}, fixture.TaskSet().Tasks...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < extraEdits; i++ {
		if err := sess.SetCores(2 + (fixture.M+i)%6); err != nil {
			t.Fatal(err)
		}
	}
	return sess.Snapshot(id, lastTouch)
}

func TestSessionStoreAppendRecover(t *testing.T) {
	dir := t.TempDir()
	st, err := engine.OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a1 := newSnapshot(t, "aa", 100, 0)
	a2 := newSnapshot(t, "aa", 200, 2) // supersedes a1
	b := newSnapshot(t, "bb", 300, 1)
	c := newSnapshot(t, "cc", 400, 0)
	for _, snap := range []*session.Snapshot{a1, b, a2, c} {
		if err := st.Append(snap); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Delete("cc"); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("never-existed"); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("live ids = %d, want 2", st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := engine.OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rec := re.Recovered()
	if len(rec) != 2 || rec[0].ID != "aa" || rec[1].ID != "bb" {
		t.Fatalf("recovered %d snapshots: %+v", len(rec), rec)
	}
	if rec[0].Epoch != a2.Epoch || rec[0].LastTouch != 200 {
		t.Fatalf("recovered stale 'aa': epoch %d lastTouch %d, want %d/200",
			rec[0].Epoch, rec[0].LastTouch, a2.Epoch)
	}
	if rec[0].Opts.Cores != a2.Opts.Cores || len(rec[0].Tasks) != len(a2.Tasks) {
		t.Fatalf("recovered content differs: %+v vs %+v", rec[0], a2)
	}
}

func TestSessionStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, err := engine.OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(newSnapshot(t, "aa", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(newSnapshot(t, "bb", 2, 0)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	logPath := filepath.Join(dir, "sessions.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the tail at every offset inside the last record: recovery
	// must keep 'aa' (and 'bb' only when its record survived intact).
	full := int64(len(data))
	for cut := full - 1; cut > full/2; cut -= 7 {
		if err := os.WriteFile(logPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := engine.OpenSessionStore(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		rec := re.Recovered()
		if len(rec) == 0 || rec[0].ID != "aa" {
			t.Fatalf("cut at %d: lost the intact prefix: %+v", cut, rec)
		}
		// The torn tail must be truncated on disk so the next append
		// starts from a clean frame boundary.
		if fi, err := os.Stat(logPath); err != nil || fi.Size() == cut {
			if err == nil && cut != full {
				t.Fatalf("cut at %d: torn tail not truncated (size %d)", cut, fi.Size())
			}
		}
		if err := re.Append(newSnapshot(t, "cc", 3, 0)); err != nil {
			t.Fatal(err)
		}
		re.Close()
		re2, err := engine.OpenSessionStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(re2.Recovered()); got < 2 {
			t.Fatalf("cut at %d: append after torn-tail recovery lost data: %d ids", cut, got)
		}
		re2.Close()
		// Restore the original bytes for the next cut.
		if err := os.WriteFile(logPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSessionStoreGarbageTailStopsRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := engine.OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(newSnapshot(t, "aa", 1, 0)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	logPath := filepath.Join(dir, "sessions.log")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{'X', 0xff, 0x03, 0x01, 0x02}) // unknown frame type + junk
	f.Close()
	re, err := engine.OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.Recovered(); len(rec) != 1 || rec[0].ID != "aa" {
		t.Fatalf("recovered %+v, want just aa", rec)
	}
}

func TestSessionStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := engine.OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := newSnapshot(t, "aa", 1, 0)
	one, err := snap.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Enough superseded appends of one id to cross the compaction
	// threshold several times over.
	appends := (64<<10)/len(one)*2 + 16
	for i := 0; i < appends; i++ {
		if err := st.Append(snap); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(filepath.Join(dir, "sessions.log"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= int64(appends*len(one)) {
		t.Fatalf("log never compacted: %d bytes after %d appends of %d-byte snapshots",
			fi.Size(), appends, len(one))
	}
	st.Close()
	re, err := engine.OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.Recovered(); len(rec) != 1 || rec[0].ID != "aa" {
		t.Fatalf("compacted log recovered %+v", rec)
	}
}

func TestSessionStoreFsyncFaultInjection(t *testing.T) {
	dir := t.TempDir()
	st, err := engine.OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var fault engine.FaultConfig
	st.SetFault(&fault)
	fault.FailNextFsync(1)
	if err := st.Append(newSnapshot(t, "aa", 1, 0)); err == nil {
		t.Fatal("injected fsync failure not surfaced")
	}
	if err := st.Append(newSnapshot(t, "aa", 2, 1)); err != nil {
		t.Fatalf("append after cleared fault: %v", err)
	}
}

func TestFaultKillAfterAppendsFiresOnce(t *testing.T) {
	dir := t.TempDir()
	st, err := engine.OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var fault engine.FaultConfig
	st.SetFault(&fault)
	var fired atomic.Int64
	fault.KillAfterAppends(2, func() { fired.Add(1) })
	for i := 0; i < 5; i++ {
		if err := st.Append(newSnapshot(t, "aa", int64(i), i%3)); err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if i >= 1 {
			want = 1
		}
		if fired.Load() != want {
			t.Fatalf("after append %d: kill fired %d times, want %d", i+1, fired.Load(), want)
		}
	}
}

// TestSessionStoreSkipsRecordsPastABound pins recovery across a new
// limits bound: a log written without the node bound holds an intact
// record whose 1025-node task the snapshot decoder now refuses. That
// record is skipped and counted, not taken for a torn tail: its session
// is dropped rather than restored at the older epoch the log also
// holds, the records after it survive, and the log is not truncated.
func TestSessionStoreSkipsRecordsPastABound(t *testing.T) {
	dir := t.TempDir()
	wide := newSnapshot(t, "bb", 300, 0)
	var b dag.Builder
	for range 1025 {
		b.AddNode(1)
	}
	wide.Tasks = append(wide.Tasks, &model.Task{Name: "wide", G: b.MustBuild(), Deadline: 5000, Period: 5000})
	wide.Epoch++
	var log []byte
	for _, snap := range []*session.Snapshot{newSnapshot(t, "aa", 100, 0), newSnapshot(t, "bb", 200, 0), wide, newSnapshot(t, "cc", 400, 1)} {
		payload, err := snap.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		log = wire.AppendFrame(log, wire.FrameSnapshot, payload)
	}
	path := filepath.Join(dir, "sessions.log")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := engine.OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var ids []string
	for _, snap := range st.Recovered() {
		ids = append(ids, snap.ID)
	}
	if fmt.Sprint(ids) != "[aa cc]" || st.Skipped() != 1 {
		t.Fatalf("recovered %v with %d skipped, want [aa cc] with 1", ids, st.Skipped())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(log)) {
		t.Fatalf("log size after recovery: %v, %v; want %d (not truncated)", fi.Size(), err, len(log))
	}
}
