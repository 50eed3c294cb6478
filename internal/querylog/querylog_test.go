package querylog

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hyperq/internal/trace"
)

func TestRedact(t *testing.T) {
	cases := []struct{ in, want string }{
		{
			`SELECT * FROM T1 WHERE A = 5 AND B = 'secret'`,
			`SELECT * FROM T1 WHERE A = ? AND B = '?'`,
		},
		{
			`INSERT INTO SALES VALUES (100.00, DATE '2014-02-01', 1)`,
			`INSERT INTO SALES VALUES (?, DATE '?', ?)`,
		},
		{
			`SELECT 'it''s' FROM DUAL`,
			`SELECT '?' FROM DUAL`,
		},
		{
			`SELECT X FROM "T 2" WHERE Y < 1e5 AND Z > .5`,
			`SELECT X FROM "T 2" WHERE Y < ? AND Z > ?`,
		},
		{
			// Identifiers with digits survive; literals do not.
			`SELECT L_QUANTITY, C2 FROM LINEITEM WHERE L_QUANTITY < 24`,
			`SELECT L_QUANTITY, C2 FROM LINEITEM WHERE L_QUANTITY < ?`,
		},
	}
	for _, c := range cases {
		if got := Redact(c.in); got != c.want {
			t.Errorf("Redact(%q)\n got %q\nwant %q", c.in, got, c.want)
		}
	}
}

func mkTrace(sql string) *trace.Trace {
	tr := trace.New(1, 2, "appuser", sql)
	sp := tr.Start("parse")
	sp.End()
	tr.AddTranslated("SELECT * FROM T WHERE A = 5")
	tr.SetCache("miss")
	tr.SetFingerprint("00000000deadbeef")
	tr.SetStreamed(true)
	tr.Finish("ok", 0, "", "")
	return tr
}

func readLines(t *testing.T, path string) []Entry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []Entry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad log line %q: %v", sc.Text(), err)
		}
		out = append(out, e)
	}
	return out
}

func TestWriterAppendAndRedact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "query.log")
	w, err := Open(path, Options{Redact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.LogTrace(mkTrace("SELECT * FROM T WHERE A = 5")); err != nil {
		t.Fatal(err)
	}
	if err := w.LogTrace(mkTrace("SELECT 'x'")); err != nil {
		t.Fatal(err)
	}
	lines := readLines(t, path)
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	e := lines[0]
	if e.SQL != "SELECT * FROM T WHERE A = ?" {
		t.Fatalf("frontend SQL not redacted: %q", e.SQL)
	}
	if len(e.Translated) != 1 || e.Translated[0] != "SELECT * FROM T WHERE A = ?" {
		t.Fatalf("translated SQL not redacted: %v", e.Translated)
	}
	if e.TraceID == "" || e.Outcome != "ok" || e.User != "appuser" || e.Cache != "miss" {
		t.Fatalf("entry fields missing: %+v", e)
	}
	if _, ok := e.StageNs["parse"]; !ok {
		t.Fatalf("stage timings missing: %v", e.StageNs)
	}
	// The /statements join keys: fingerprint, normalized cache tier, streamed.
	if e.Fingerprint != "00000000deadbeef" {
		t.Errorf("fingerprint = %q", e.Fingerprint)
	}
	if e.CacheTier != "miss" || !e.Streamed {
		t.Errorf("cacheTier/streamed = %q/%v", e.CacheTier, e.Streamed)
	}
}

// TestCacheTierNormalization pins the mapping from trace cache labels to the
// /statements tier vocabulary, so log analysis joins cleanly.
func TestCacheTierNormalization(t *testing.T) {
	cases := []struct{ in, want string }{
		{"raw-hit", "exact-hit"},
		{"hit", "fingerprint-hit"},
		{"miss", "miss"},
		{"bypass", "bypass"},
		{"", ""},
	}
	for _, c := range cases {
		if got := cacheTier(c.in); got != c.want {
			t.Errorf("cacheTier(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWriterRotationSafe(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "query.log")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.LogTrace(mkTrace("SELECT 1")); err != nil {
		t.Fatal(err)
	}
	// Simulate logrotate: move the live file aside.
	rotated := filepath.Join(dir, "query.log.1")
	if err := os.Rename(path, rotated); err != nil {
		t.Fatal(err)
	}
	if err := w.LogTrace(mkTrace("SELECT 2")); err != nil {
		t.Fatal(err)
	}
	if got := readLines(t, rotated); len(got) != 1 {
		t.Fatalf("rotated file lines = %d, want 1", len(got))
	}
	fresh := readLines(t, path)
	if len(fresh) != 1 || fresh[0].SQL != "SELECT 2" {
		t.Fatalf("fresh file wrong: %+v", fresh)
	}
	// Unredacted writer keeps literals.
	if fresh[0].SQL != "SELECT 2" {
		t.Fatalf("unexpected redaction: %q", fresh[0].SQL)
	}
	// The join fields survive rotation on both sides of the rename.
	for _, e := range []Entry{readLines(t, rotated)[0], fresh[0]} {
		if e.Fingerprint != "00000000deadbeef" || e.CacheTier != "miss" || !e.Streamed {
			t.Fatalf("join fields lost across rotation: %+v", e)
		}
	}
}

func TestNilWriter(t *testing.T) {
	var w *Writer
	if err := w.LogTrace(mkTrace("SELECT 1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Redacting() {
		t.Fatal("nil writer cannot redact")
	}
}
