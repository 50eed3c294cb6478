package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCompactIndexBoundaries(t *testing.T) {
	us := int64(time.Microsecond)
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{1, 0},
		{16 * us, 0},   // first bound is inclusive
		{16*us + 1, 1}, // just past it
		{32 * us, 1},
		{32*us + 1, 2},
		{64 * us, 2},
		{compactBase << (compactBuckets - 1), compactBuckets - 1}, // last finite bound
		{compactBase<<(compactBuckets-1) + 1, compactBuckets},     // +Inf slot
		{int64(time.Hour), compactBuckets},
	}
	for _, tc := range cases {
		if got := compactIndex(tc.ns); got != tc.want {
			t.Errorf("compactIndex(%d) = %d, want %d", tc.ns, got, tc.want)
		}
	}
}

// TestCompactMatchesHistogram pins the equivalence with the bounds-carrying
// Histogram over DurationBuckets(): identical counts bucket by bucket.
// Durations sit strictly inside buckets so float-vs-integer boundary
// rounding cannot skew the comparison.
func TestCompactMatchesHistogram(t *testing.T) {
	var c Compact
	h := New(DurationBuckets())
	var durs []time.Duration
	for i := 0; i < compactBuckets; i++ {
		d := time.Duration(compactBase<<i) * 3 / 4 // mid-bucket
		for j := 0; j <= i%3; j++ {
			durs = append(durs, d)
		}
	}
	durs = append(durs, time.Hour) // +Inf bucket
	for _, d := range durs {
		c.Observe(d)
		h.Observe(d.Seconds())
	}

	cs := c.Snapshot().Histogram()
	hs := h.Snapshot()
	if cs.Count != hs.Count || cs.Count != int64(len(durs)) {
		t.Fatalf("count = %d vs %d, want %d", cs.Count, hs.Count, len(durs))
	}
	if len(cs.Counts) != len(hs.Counts) {
		t.Fatalf("bucket count = %d vs %d", len(cs.Counts), len(hs.Counts))
	}
	for i := range cs.Counts {
		if cs.Counts[i] != hs.Counts[i] {
			t.Errorf("bucket %d: compact %d, histogram %d", i, cs.Counts[i], hs.Counts[i])
		}
	}
	// Sums agree to float precision (Histogram accumulates seconds).
	if diff := cs.Sum - hs.Sum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("sum = %f vs %f", cs.Sum, hs.Sum)
	}
}

func TestCompactQuantileAndMean(t *testing.T) {
	var c Compact
	// 100 observations at ~1ms, 1 at ~1s: p50 lands in the 1ms bucket, p99+
	// well above it.
	for i := 0; i < 100; i++ {
		c.Observe(time.Millisecond)
	}
	c.Observe(time.Second)
	s := c.Snapshot()
	if p50 := s.Quantile(0.50); p50 < 512*time.Microsecond || p50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ~1ms", p50)
	}
	if p50, p999 := s.Quantile(0.50), s.Quantile(0.999); p999 <= p50 {
		t.Errorf("p999 %v <= p50 %v", p999, p50)
	}
	wantMean := (100*time.Millisecond + time.Second) / 101
	if got := s.Mean(); got != wantMean {
		t.Errorf("mean = %v, want %v", got, wantMean)
	}

	var empty Compact
	es := empty.Snapshot()
	if es.Quantile(0.99) != 0 || es.Mean() != 0 {
		t.Error("empty histogram quantile/mean not zero")
	}
}

func TestCompactMergeAndReset(t *testing.T) {
	var a, b Compact
	for i := 0; i < 10; i++ {
		a.Observe(time.Millisecond)
		b.Observe(time.Second)
	}
	a.Merge(&b)
	s := a.Snapshot()
	if s.Count != 20 {
		t.Fatalf("merged count = %d, want 20", s.Count)
	}
	if want := int64(10*time.Millisecond + 10*time.Second); s.SumNs != want {
		t.Errorf("merged sum = %d, want %d", s.SumNs, want)
	}
	a.Reset()
	if s := a.Snapshot(); s.Count != 0 || s.SumNs != 0 {
		t.Errorf("reset left count=%d sum=%d", s.Count, s.SumNs)
	}
	// The source is untouched by Merge.
	if s := b.Snapshot(); s.Count != 10 {
		t.Errorf("merge mutated source: count = %d", s.Count)
	}
}

func TestCompactConcurrentObserve(t *testing.T) {
	var c Compact
	var wg sync.WaitGroup
	const goroutines, perG = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Observe(time.Duration(g+1) * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if s := c.Snapshot(); s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
}

func TestCompactObserveAllocationFree(t *testing.T) {
	var c Compact
	if avg := testing.AllocsPerRun(500, func() {
		c.Observe(3 * time.Millisecond)
	}); avg != 0 {
		t.Fatalf("Compact.Observe allocates %.1f per call, want 0", avg)
	}
}
