package load

import (
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"hyperq/internal/types"
	"hyperq/internal/wire/tdp"
	"hyperq/perf/canned"
)

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {1 << 20, 0.99}} {
		if got := TailQuantile(c.n); got != c.want {
			t.Errorf("TailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestLatenciesQuantileAndMedian(t *testing.T) {
	var l Latencies
	if !math.IsNaN(l.Quantile(0.5)) {
		t.Error("empty recorder must report NaN, not 0")
	}
	for i := 100; i >= 1; i-- {
		l.Add(time.Duration(i) * time.Millisecond)
	}
	if got := l.Quantile(0.5); got != 50 {
		t.Errorf("p50 = %v ms, want 50", got)
	}
	if got := l.Quantile(0.99); got != 99 {
		t.Errorf("p99 = %v ms, want 99", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func TestProcSampling(t *testing.T) {
	cpu, ok := ProcCPU(os.Getpid())
	rss, ok2 := ProcPeakRSS(os.Getpid())
	if runtime.GOOS != "linux" {
		if ok || ok2 {
			t.Fatal("process metrics claimed available without /proc")
		}
		return
	}
	if !ok || !ok2 || cpu < 0 || rss <= 0 {
		t.Fatalf("own process: cpu %v (%v), peak rss %d (%v)", cpu, ok, rss, ok2)
	}
	if _, ok := ProcCPU(1 << 30); ok {
		t.Error("a process that does not exist must be unavailable, not zero")
	}
}

// TestClientAgainstCannedFront drives the parcel-level client against the
// real tdp server and checks counting, capture and the reference comparison.
func TestClientAgainstCannedFront(t *testing.T) {
	cols := []tdp.ColumnDef{{Name: "a", Type: types.Int}, {Name: "s", Type: types.VarChar(10)}}
	rows := [][]types.Datum{
		{types.NewInt(1), types.NewString("one")},
		{types.NewInt(2), types.NewNull(types.KindVarChar)},
	}
	front := canned.Front{
		"two": {{Cols: cols, Rows: rows, Activity: 2, Command: "SELECT"}, {Command: "INSERT", Activity: 1}},
	}
	addr, stop, err := canned.ServeFront(front)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	c, err := Dial(addr, "bench")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ref, err := c.Do("two", true)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Statements != 2 || ref.Rows != 2 || ref.Failure != "" || ref.FirstRecord <= 0 || ref.End < ref.FirstRecord {
		t.Fatalf("captured response: %+v", ref)
	}
	want := &Expect{Statements: 2, Rows: 2, RecordBytes: ref.RecordBytes,
		Stmts: []ExpectStatement{{Cols: cols, Rows: rows}, {}}}
	if err := want.CheckFull(&ref); err != nil {
		t.Fatalf("reference against itself: %v", err)
	}
	cheap, err := c.Do("two", false)
	if err != nil {
		t.Fatal(err)
	}
	if cheap.Records != nil || want.Check(&cheap) != nil {
		t.Fatalf("uncaptured response: %+v", cheap)
	}

	// Every kind of disagreement is a failed operation.
	wrong := *want
	wrong.Stmts = []ExpectStatement{{Cols: cols, Rows: [][]types.Datum{rows[0], {types.NewInt(2), types.NewString("")}}}, {}}
	if wrong.CheckFull(&ref) == nil {
		t.Error("NULL against empty string passed the datum comparison")
	}
	short := *want
	short.RecordBytes--
	if short.Check(&cheap) == nil {
		t.Error("a record-byte mismatch passed")
	}
	failed, err := c.Do("unknown request", false)
	if err != nil {
		t.Fatal(err)
	}
	if failed.Failure == "" || want.Check(&failed) == nil {
		t.Errorf("failure parcel not reported: %+v", failed)
	}
}
