package querylog

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"hyperq/internal/trace"
)

func mkSessionTrace(session uint64, sql string, start time.Time) *trace.Trace {
	tr := trace.New(1, session, "appuser", sql)
	tr.StartedAt = start
	tr.Finish("ok", 0, "", "")
	return tr
}

func TestCaptureSeqDeltaAndSQL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "query.log")
	w, err := Open(path, Options{Redact: true, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !w.Capturing() || !w.Redacting() {
		t.Fatal("options not reflected")
	}
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	// Two interleaved sessions; each keeps its own sequence and deltas.
	logs := []struct {
		session uint64
		sql     string
		at      time.Time
	}{
		{10, "SELECT * FROM T WHERE A = 5", base},
		{20, "SELECT 'x'", base.Add(1 * time.Millisecond)},
		{10, "SELECT * FROM T WHERE A = 6", base.Add(40 * time.Millisecond)},
		{10, "SELECT * FROM T WHERE A = 7", base.Add(55 * time.Millisecond)},
	}
	for _, l := range logs {
		if err := w.LogTrace(mkSessionTrace(l.session, l.sql, l.at)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := ReadFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(entries))
	}
	// Session 10's stream: seq 1..3, deltas 0 / 40ms / 15ms.
	streams := Streams(entries)
	if len(streams) != 2 {
		t.Fatalf("streams = %d, want 2", len(streams))
	}
	s10 := streams[0]
	if s10.Session != 10 || len(s10.Entries) != 3 || s10.Gaps != 0 {
		t.Fatalf("stream 10 wrong: %+v", s10)
	}
	wantDelta := []int64{0, 40e6, 15e6}
	for i, e := range s10.Entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("seq[%d] = %d", i, e.Seq)
		}
		if e.DeltaNs != wantDelta[i] {
			t.Fatalf("delta[%d] = %d, want %d", i, e.DeltaNs, wantDelta[i])
		}
	}
	// Redaction scrubbed the logged SQL but capture kept the literals.
	e := s10.Entries[0]
	if e.SQL != "SELECT * FROM T WHERE A = ?" {
		t.Fatalf("logged SQL not redacted: %q", e.SQL)
	}
	if e.CaptureSQL != "SELECT * FROM T WHERE A = 5" {
		t.Fatalf("capture SQL lost literals: %q", e.CaptureSQL)
	}
	if e.ReplaySQL() != e.CaptureSQL {
		t.Fatalf("ReplaySQL = %q", e.ReplaySQL())
	}
}

func TestCaptureWithoutRedactionOmitsDuplicateSQL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "query.log")
	w, err := Open(path, Options{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.LogTrace(mkSessionTrace(1, "SELECT 42", time.Now())); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	e := entries[0]
	if e.CaptureSQL != "" {
		t.Fatalf("capture_sql duplicated unredacted SQL: %q", e.CaptureSQL)
	}
	if e.ReplaySQL() != "SELECT 42" {
		t.Fatalf("ReplaySQL = %q", e.ReplaySQL())
	}
}

// TestReadFilesStitchesRotation pins the rotation edge the replay reader must
// survive: a session's stream split across a rotated file and the live file
// comes back as one contiguous sequence.
func TestReadFilesStitchesRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "query.log")
	w, err := Open(path, Options{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	base := time.Date(2026, 8, 1, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		if err := w.LogTrace(mkSessionTrace(7, "SELECT 1", base.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatal(err)
		}
	}
	rotated := filepath.Join(dir, "query.log.1")
	if err := os.Rename(path, rotated); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		if err := w.LogTrace(mkSessionTrace(7, "SELECT 1", base.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := ReadFiles(rotated, path)
	if err != nil {
		t.Fatal(err)
	}
	streams := Streams(entries)
	if len(streams) != 1 {
		t.Fatalf("streams = %d, want 1", len(streams))
	}
	s := streams[0]
	if len(s.Entries) != 5 || s.Gaps != 0 {
		t.Fatalf("stitched stream wrong: %d entries, %d gaps", len(s.Entries), s.Gaps)
	}
	for i, e := range s.Entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("seq[%d] = %d after stitch", i, e.Seq)
		}
	}
}

func TestReadFilesToleratesTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "a.log")
	if err := os.WriteFile(good, []byte(`{"session":1,"seq":1,"sql":"SELECT 1","time":"2026-08-01T00:00:00Z","trace_id":"t","user":"u","duration_ns":1,"outcome":"ok","backend_requests":1}`+"\n"+`{"session":1,"seq":2,"sql":"SEL`), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadFiles(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Seq != 1 {
		t.Fatalf("torn trailing line not skipped: %+v", entries)
	}
	// A malformed line mid-file is corruption, not a torn write.
	bad := filepath.Join(dir, "b.log")
	if err := os.WriteFile(bad, []byte("garbage\n{\"session\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFiles(bad); err == nil {
		t.Fatal("mid-file corruption not reported")
	}
}

func TestStreamsCountSequenceGaps(t *testing.T) {
	entries := []Entry{
		{Session: 3, Seq: 2, SQL: "B"}, // seq 1 lost
		{Session: 3, Seq: 5, SQL: "E"}, // seq 4 lost
		{Session: 3, Seq: 3, SQL: "C"},
	}
	streams := Streams(entries)
	if len(streams) != 1 {
		t.Fatalf("streams = %d", len(streams))
	}
	s := streams[0]
	if s.Gaps != 2 {
		t.Fatalf("gaps = %d, want 2 (one before seq 2, one before seq 5)", s.Gaps)
	}
	if s.Entries[0].SQL != "B" || s.Entries[1].SQL != "C" || s.Entries[2].SQL != "E" {
		t.Fatalf("stream not seq-ordered: %+v", s.Entries)
	}
}
