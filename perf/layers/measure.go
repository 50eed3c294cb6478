package layers

import (
	"runtime"
	"sort"
	"time"
)

// Metric is one per-layer value.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the number of operations the value was measured over.
	Samples int64 `json:"samples"`
}

// rounds is how many equal parts a timer's budget is split into; the
// reported time per operation is the median over the parts, so one part
// disturbed by a collection or the scheduler does not move the value.
const rounds = 5

// cost is what a timer measured for one operation.
type cost struct {
	ns     float64 // median over rounds of ns per operation
	allocs float64 // heap allocations per operation, over the whole run
	bytes  float64 // heap bytes per operation, over the whole run
	ops    int64
}

// measure runs pass, which performs n operations per call, for about budget
// and reports the per-operation cost. It is single-goroutine unless pass
// itself starts goroutines; the allocation figures are runtime.MemStats
// deltas, which count every goroutine's allocations.
func measure(budget time.Duration, n int, pass func()) cost {
	pass() // one untimed call: first-use allocations (pools, lazily built tables) are set-up
	var perOp []float64
	var total int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < rounds; r++ {
		var ops int64
		start := time.Now()
		var el time.Duration
		for {
			pass()
			ops += int64(n)
			if el = time.Since(start); el >= budget/rounds {
				break
			}
		}
		perOp = append(perOp, float64(el.Nanoseconds())/float64(ops))
		total += ops
	}
	runtime.ReadMemStats(&m1)
	sort.Float64s(perOp)
	return cost{
		ns:     perOp[len(perOp)/2],
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(total),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(total),
		ops:    total,
	}
}

// perSecond converts ns per operation into operations per second.
func perSecond(nsPerOp float64) float64 { return 1e9 / nsPerOp }
