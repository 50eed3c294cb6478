package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := New([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 3, 7, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if want := 0.5 + 1.5 + 3 + 7 + 100; math.Abs(s.Sum-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	wantCounts := []int64{1, 1, 1, 1, 1}
	for i, c := range s.Counts {
		if c != wantCounts[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, wantCounts[i])
		}
	}
}

func TestHistogramBoundaryInclusive(t *testing.T) {
	h := New([]float64{1, 2})
	h.Observe(1) // exactly on a bound lands in that bucket (le semantics)
	s := h.Snapshot()
	if s.Counts[0] != 1 {
		t.Fatalf("observation on bound landed in bucket %v", s.Counts)
	}
}

// TestHistogramConcurrent asserts no observation is lost under concurrent
// recording (run with -race to validate the synchronization story).
func TestHistogramConcurrent(t *testing.T) {
	h := New(DurationBuckets())
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for gid := 0; gid < goroutines; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(gid*per+i) * 1e-6)
			}
		}(gid)
	}
	wg.Wait()
	s := h.Snapshot()
	if want := int64(goroutines * per); s.Count != want {
		t.Fatalf("count = %d, want %d", s.Count, want)
	}
	var bucketSum int64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	// Sum of 0..N-1 µs-scale observations.
	n := float64(goroutines * per)
	want := (n - 1) * n / 2 * 1e-6
	if math.Abs(s.Sum-want) > want*1e-9+1e-9 {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
}

func TestStagesResetAndObserve(t *testing.T) {
	st := NewStages()
	st.Stage(StageParse).Observe(time.Millisecond)
	st.Request.Observe(2 * time.Millisecond)
	st.Overhead.Observe(0.25)
	if st.Stage(StageParse).Snapshot().Count != 1 {
		t.Fatal("parse observation lost")
	}
	st.Reset()
	if st.Stage(StageParse).Snapshot().Count != 0 || st.Request.Snapshot().Count != 0 || st.Overhead.Snapshot().Count != 0 {
		t.Fatal("reset did not clear histograms")
	}
}

func TestPrometheusRendering(t *testing.T) {
	h := New([]float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)
	var b strings.Builder
	WriteHistogram(&b, "x_seconds", "help text", "stage", "parse", h.Snapshot())
	out := b.String()
	for _, want := range []string{
		"# HELP x_seconds help text",
		"# TYPE x_seconds histogram",
		`x_seconds_bucket{stage="parse",le="0.001"} 1`,
		`x_seconds_bucket{stage="parse",le="0.01"} 2`, // cumulative
		`x_seconds_bucket{stage="parse",le="+Inf"} 3`,
		`x_seconds_count{stage="parse"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	b.Reset()
	WriteHistogram(&b, "y_seconds", "", "", "", h.Snapshot())
	if !strings.Contains(b.String(), `y_seconds_bucket{le="+Inf"} 3`) {
		t.Fatalf("unlabeled histogram rendering wrong:\n%s", b.String())
	}
	b.Reset()
	WriteCounter(&b, "z_total", "h", "counter", 7)
	if !strings.Contains(b.String(), "z_total 7") {
		t.Fatalf("counter rendering wrong:\n%s", b.String())
	}
}
