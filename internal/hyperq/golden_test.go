package hyperq

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/querylog"
	"hyperq/internal/wire/tdp"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/observability.golden from this run")

// TestObservabilityGolden pins what an operator reads: the /traces JSON and
// the query-log lines, byte for byte once timings, timestamps, trace and
// session ids and socket addresses are normalized. It drives, over the wire,
// a translation-cache miss, a request-tier hit and a fingerprint-tier hit; a
// read that survives a dropped backend session (retry, reconnect and replay
// of a volatile table's DDL); and, on a target without recursion, a
// recursive query emulated as a fan-out of backend requests. Rewrite the
// golden file with -update-golden, and only for an intended change of the
// output.
func TestObservabilityGolden(t *testing.T) {
	var doc bytes.Buffer
	ids := idOrdinals{}
	section := func(name string, st *streamStack, logPath string) {
		t.Helper()
		rec := httptest.NewRecorder()
		st.g.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/traces", nil))
		doc.WriteString("== " + name + ": /traces\n")
		writeNormalized(t, &doc, ids, rec.Body.Bytes())
		lines, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		doc.WriteString("== " + name + ": query log\n")
		for _, line := range bytes.Split(bytes.TrimSpace(lines), []byte("\n")) {
			writeNormalized(t, &doc, ids, line)
		}
	}
	ask := func(c *rawConn, sql string) {
		t.Helper()
		for _, p := range transcript(t, c, sql) {
			if p.kind == tdp.MsgFailure {
				t.Fatalf("%q failed: %s", sql, p.payload)
			}
		}
	}
	dir := t.TempDir()

	// CloudA: the three cache tiers, then a read across a backend bounce.
	logA := filepath.Join(dir, "a.log")
	qa, err := querylog.Open(logA, querylog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer qa.Close()
	_, engA := newTestGateway(t, dialect.CloudA())
	stA := newStreamStack(t, dialect.CloudA(), engA, Config{QueryLog: qa}, tdp.Options{})
	ca := dialRaw(t, stA.addr)
	defer ca.close()
	ask(ca, "SEL STORE, AMOUNT FROM SALES WHERE AMOUNT > 90 ORDER BY STORE, AMOUNT") // miss
	ask(ca, "SEL STORE, AMOUNT FROM SALES WHERE AMOUNT > 90 ORDER BY STORE, AMOUNT") // request-tier hit
	ask(ca, "SEL STORE, AMOUNT FROM SALES WHERE AMOUNT > 95 ORDER BY STORE, AMOUNT") // fingerprint-tier hit
	ask(ca, "CREATE VOLATILE TABLE VT (X INT) ON COMMIT PRESERVE ROWS")
	ask(ca, "INSERT INTO VT VALUES (1)")
	stA.fd.DropActiveSessions()
	ask(ca, "SEL COUNT(*) FROM SALES") // retry, reconnect, replay
	section("cache tiers and reconnect", stA, logA)

	// CloudC lacks recursion: one recursive query fans out.
	logC := filepath.Join(dir, "c.log")
	qc, err := querylog.Open(logC, querylog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	_, engC := newTestGateway(t, dialect.CloudC())
	stC := newStreamStack(t, dialect.CloudC(), engC, Config{QueryLog: qc}, tdp.Options{})
	cc := dialRaw(t, stC.addr)
	defer cc.close()
	ask(cc, `WITH RECURSIVE CHAIN (EMPNO, MGRNO, DEPTH) AS (
	  SELECT EMPNO, MGRNO, 0 FROM EMP WHERE EMPNO = 1
	  UNION ALL
	  SELECT E.EMPNO, E.MGRNO, C.DEPTH + 1 FROM EMP E JOIN CHAIN C ON E.EMPNO = C.MGRNO
	) SELECT COUNT(*) FROM CHAIN`)
	section("recursive emulation", stC, logC)

	golden := filepath.Join("testdata", "observability.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, doc.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc.Bytes(), want) {
		got := filepath.Join(t.TempDir(), "observability.got")
		_ = os.WriteFile(got, doc.Bytes(), 0o644)
		t.Fatalf("observability output differs from %s (this run's output is in %s)", golden, got)
	}
}

var (
	goldenTimes    = regexp.MustCompile(`"(start_ns|duration_ns)":\s*\d+`)
	goldenClock    = regexp.MustCompile(`"(started_at|time)":\s*"[^"]*"`)
	goldenStages   = regexp.MustCompile(`"stage_ns":\s*\{[^}]*\}`)
	goldenStage    = regexp.MustCompile(`("\w+"):\s*-?\d+`)
	goldenTraceID  = regexp.MustCompile(`"t-(\d+)-(\d+)"`)
	goldenSession  = regexp.MustCompile(`"session":\s*(\d+)`)
	goldenSockAddr = regexp.MustCompile(`127\.0\.0\.1:\d+`)
)

// writeNormalized appends one JSON document to doc, indented, with what
// varies from run to run replaced: durations become 0, clock readings "T",
// trace and session ids ordinals of their first appearance in the document,
// loopback ports "PORT". Stage names stay: which stages a request ran is
// part of the output.
func writeNormalized(t *testing.T, doc *bytes.Buffer, ids idOrdinals, js []byte) {
	t.Helper()
	var compact bytes.Buffer
	if err := json.Compact(&compact, js); err != nil {
		t.Fatalf("%v in %s", err, js)
	}
	b := compact.Bytes()
	b = goldenTimes.ReplaceAll(b, []byte(`"$1":0`))
	b = goldenClock.ReplaceAll(b, []byte(`"$1":"T"`))
	b = goldenStages.ReplaceAllFunc(b, func(m []byte) []byte { return goldenStage.ReplaceAll(m, []byte(`$1:0`)) })
	b = goldenSockAddr.ReplaceAll(b, []byte("127.0.0.1:PORT"))
	b = goldenTraceID.ReplaceAllFunc(b, func(m []byte) []byte {
		sm := goldenTraceID.FindSubmatch(m)
		return []byte(`"t-` + ids.of("session", string(sm[1])) + "-" + ids.of("trace", string(sm[2])) + `"`)
	})
	b = goldenSession.ReplaceAllFunc(b, func(m []byte) []byte {
		return []byte(`"session":` + ids.of("session", string(goldenSession.FindSubmatch(m)[1])))
	})
	var out bytes.Buffer
	if err := json.Indent(&out, b, "", "  "); err != nil {
		t.Fatalf("%v in %s", err, b)
	}
	doc.Write(out.Bytes())
	doc.WriteByte('\n')
}

// idOrdinals numbers the ids of one document by first appearance, per kind.
type idOrdinals map[string]map[string]int

func (o idOrdinals) of(kind, id string) string {
	m := o[kind]
	if m == nil {
		m = map[string]int{}
		o[kind] = m
	}
	n, ok := m[id]
	if !ok {
		n = len(m) + 1
		m[id] = n
	}
	return strconv.Itoa(n)
}
