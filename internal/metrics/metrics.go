// Package metrics provides the gateway's lock-cheap histograms: fixed
// log-scaled buckets updated with atomic adds (no locks on the hot path),
// point-in-time snapshots with quantile estimation, and a Prometheus
// text-format renderer (no external dependencies). Every duration is
// observed through Compact: one per pipeline stage (parse, bind, transform,
// serialize, cache, execute, convert), whole-request latency, pool acquire
// waits and each tracked statement shape. Histogram, with explicit bounds,
// keeps the per-request gateway-overhead ratio — the quantity the paper's §6
// evaluation reports as "gateway overhead vs. backend time".
package metrics

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram safe for concurrent observation.
// Bucket counters, the total count, and the running sum are updated with
// atomic operations only; snapshots are taken without stopping writers and
// are therefore only approximately consistent across buckets — exact enough
// for latency reporting, and never losing an observation.
type Histogram struct {
	// bounds are the ascending inclusive upper bounds; observations above
	// the last bound land in an implicit +Inf bucket.
	bounds []float64
	counts []int64 // len(bounds)+1
	count  int64
	sum    uint64 // float64 bits, CAS-updated
}

// New creates a histogram over the given ascending bucket upper bounds.
func New(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// DurationBuckets returns the standard log-scaled latency bucket bounds in
// seconds: 16µs doubling 21 times up to ~33.5s. Pipeline stages span
// sub-millisecond parsing to multi-second backend scans; a factor-2
// progression keeps quantile estimates within ~2× everywhere.
func DurationBuckets() []float64 {
	bounds := make([]float64, 22)
	v := 16e-6
	for i := range bounds {
		bounds[i] = v
		v *= 2
	}
	return bounds
}

// RatioBuckets returns bucket bounds for values in [0,1] (overhead
// fractions), denser near the ends where translation overhead lives.
func RatioBuckets() []float64 {
	return []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	atomic.AddInt64(&h.counts[i], 1)
	atomic.AddInt64(&h.count, 1)
	for {
		old := atomic.LoadUint64(&h.sum)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&h.sum, old, next) {
			return
		}
	}
}

// Reset zeroes all counters.
func (h *Histogram) Reset() {
	for i := range h.counts {
		atomic.StoreInt64(&h.counts[i], 0)
	}
	atomic.StoreInt64(&h.count, 0)
	atomic.StoreUint64(&h.sum, 0)
}

// Snapshot is a point-in-time copy of a histogram.
type Snapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // per-bucket; last entry is the +Inf bucket
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the current state.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  atomic.LoadInt64(&h.count),
		Sum:    math.Float64frombits(atomic.LoadUint64(&h.sum)),
	}
	for i := range h.counts {
		s.Counts[i] = atomic.LoadInt64(&h.counts[i])
	}
	return s
}

// Stage identifies one pipeline stage, in execution order, and indexes every
// per-stage table in the gateway: the histograms below, the per-request
// record, the per-fingerprint statistics. StageCache is the translation-cache
// lookup; the other six are the pipeline of the paper's Figure 3.
type Stage uint8

const (
	StageParse Stage = iota
	StageBind
	StageTransform
	StageSerialize
	StageCache
	StageExecute
	StageConvert
	NumStages
)

// stageNames is the one stage-name table: the "stage" label on /metrics, the
// span names, and the stageNs keys of /statements and the query log.
var stageNames = [NumStages]string{"parse", "bind", "transform", "serialize", "cache", "execute", "convert"}

func (st Stage) String() string { return stageNames[st] }

// Stages bundles the gateway's per-stage duration histograms plus the
// whole-request latency and per-request overhead-ratio histograms. The
// duration histograms are the only tally of stage and request time: the
// Figure 9 totals are their exact sums.
type Stages struct {
	byStage [NumStages]Compact
	// Request observes whole-request wall time.
	Request Compact
	// Overhead observes the per-request gateway-overhead fraction
	// (1 - backend-execute-time/total), for requests that reached the
	// backend — the Figure 9 quantity, now as a distribution.
	Overhead *Histogram
}

// NewStages creates the standard stage set.
func NewStages() *Stages {
	return &Stages{Overhead: New(RatioBuckets())}
}

// Stage returns the stage's histogram.
func (s *Stages) Stage(stage Stage) *Compact { return &s.byStage[stage] }

// Reset zeroes every histogram.
func (s *Stages) Reset() {
	for i := range s.byStage {
		s.byStage[i].Reset()
	}
	s.Request.Reset()
	s.Overhead.Reset()
}
