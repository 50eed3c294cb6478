package load

import (
	"math"
	"sort"
	"time"
)

// Latencies collects one slice's per-request durations. It is owned by one
// goroutine; Merge combines the clients' recorders after they have stopped.
type Latencies struct {
	d []time.Duration
}

// Add records one duration.
func (l *Latencies) Add(d time.Duration) { l.d = append(l.d, d) }

// Merge appends another recorder's samples.
func (l *Latencies) Merge(o *Latencies) { l.d = append(l.d, o.d...) }

// N is the sample count.
func (l *Latencies) N() int { return len(l.d) }

// Quantile returns the q-quantile in milliseconds (NaN without samples).
func (l *Latencies) Quantile(q float64) float64 {
	if len(l.d) == 0 {
		return math.NaN()
	}
	sort.Slice(l.d, func(i, j int) bool { return l.d[i] < l.d[j] })
	i := int(math.Ceil(q*float64(len(l.d)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(l.d[i]) / float64(time.Millisecond)
}

// TailQuantile picks the tail percentile to report: p99 when at least ten
// samples lie beyond it, else the highest of p95 and p90 that has them, so the
// tail is never decided by a handful of requests. The median is returned
// when even p90 lacks them.
func TailQuantile(n int) float64 {
	for _, permille := range []int{990, 950, 900} {
		if n*(1000-permille) >= 10*1000 {
			return float64(permille) / 1000
		}
	}
	return 0.5
}

// Median of a small set of slice values.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
