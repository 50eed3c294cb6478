package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Compact is the fixed-footprint duration histogram: one per pipeline stage,
// for whole requests and pool waits, and one per tracked statement
// fingerprint. It shares the exact bucket bounds of DurationBuckets() (16µs
// doubling 21 times), but stores them nowhere — the bucket index is computed
// from the duration with a bit-length operation, so a Compact is just 25
// atomically updated int64 words with no pointers, embeddable by value.
// Observation is lock-free and allocation-free, and the sum is exact
// nanoseconds.
type Compact struct {
	counts [compactBuckets + 1]int64 // last slot is the +Inf bucket
	count  int64
	sumNs  int64
}

// compactBuckets is the number of finite buckets, matching the 22 bounds of
// DurationBuckets().
const compactBuckets = 22

// compactBase is the first bucket's inclusive upper bound (16µs), identical
// to DurationBuckets()[0].
const compactBase = 16 * int64(time.Microsecond)

// compactIndex maps a duration (ns) to its bucket: the smallest i with
// d <= 16µs·2^i, or the +Inf slot past the last bound. Equivalent to the
// binary search New(DurationBuckets()) performs, in a few bit operations.
func compactIndex(ns int64) int {
	if ns <= compactBase {
		return 0
	}
	t := uint64((ns + compactBase - 1) / compactBase) // ceil(ns / 16µs)
	i := bits.Len64(t - 1)
	if i > compactBuckets {
		i = compactBuckets
	}
	return i
}

// Observe records one duration.
func (c *Compact) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	atomic.AddInt64(&c.counts[compactIndex(ns)], 1)
	atomic.AddInt64(&c.count, 1)
	atomic.AddInt64(&c.sumNs, ns)
}

// Merge folds another histogram's counts into c (both may be observed
// concurrently; the merge is per-word atomic, like snapshots).
func (c *Compact) Merge(from *Compact) {
	for i := range from.counts {
		if n := atomic.LoadInt64(&from.counts[i]); n != 0 {
			atomic.AddInt64(&c.counts[i], n)
		}
	}
	atomic.AddInt64(&c.count, atomic.LoadInt64(&from.count))
	atomic.AddInt64(&c.sumNs, atomic.LoadInt64(&from.sumNs))
}

// Reset zeroes all counters.
func (c *Compact) Reset() {
	for i := range c.counts {
		atomic.StoreInt64(&c.counts[i], 0)
	}
	atomic.StoreInt64(&c.count, 0)
	atomic.StoreInt64(&c.sumNs, 0)
}

// CompactSnapshot is a point-in-time copy of a Compact histogram.
type CompactSnapshot struct {
	Counts [compactBuckets + 1]int64
	Count  int64
	SumNs  int64
}

// Snapshot copies the current state.
func (c *Compact) Snapshot() CompactSnapshot {
	s := CompactSnapshot{
		Count: atomic.LoadInt64(&c.count),
		SumNs: atomic.LoadInt64(&c.sumNs),
	}
	for i := range c.counts {
		s.Counts[i] = atomic.LoadInt64(&c.counts[i])
	}
	return s
}

// Quantile estimates the q-quantile by linear interpolation within the
// containing bucket, the estimator Prometheus' histogram_quantile uses.
// Returns 0 when empty; +Inf-bucket observations clamp to the largest finite
// bound.
func (s CompactSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		var lower int64
		if i > 0 {
			lower = compactBase << (i - 1)
		}
		if i >= compactBuckets {
			return time.Duration(lower)
		}
		upper := compactBase << i
		if cum+float64(c) >= rank {
			if c == 0 {
				return time.Duration(upper)
			}
			return time.Duration(float64(lower) + float64(upper-lower)*((rank-cum)/float64(c)))
		}
		cum += float64(c)
	}
	return time.Duration(compactBase << (compactBuckets - 1))
}

// Mean returns the average observed duration (0 when empty).
func (s CompactSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNs / s.Count)
}

// Histogram converts to the bounds-carrying Snapshot form, for the
// Prometheus renderer and anything else expecting the standard shape.
func (s CompactSnapshot) Histogram() Snapshot {
	h := Snapshot{
		Bounds: DurationBuckets(),
		Counts: make([]int64, compactBuckets+1),
		Count:  s.Count,
		Sum:    float64(s.SumNs) / float64(time.Second),
	}
	copy(h.Counts, s.Counts[:])
	return h
}
