package wstats

import (
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"hyperq/internal/feature"
	"hyperq/internal/metrics"
)

// Stat is one statement shape's accumulated statistics, JSON-shaped for the
// /statements debug endpoint. Fingerprint carries the redacted template id,
// Template the redacted text — raw request text never appears here.
type Stat struct {
	Fingerprint string `json:"fp"`
	Template    string `json:"template"`

	Calls      int64            `json:"calls"`
	Errors     int64            `json:"errors,omitempty"`
	ErrorCodes map[string]int64 `json:"errorCodes,omitempty"`

	TotalNs int64 `json:"totalNs"`
	MeanNs  int64 `json:"meanNs"`
	P50Ns   int64 `json:"p50Ns"`
	P95Ns   int64 `json:"p95Ns"`
	P99Ns   int64 `json:"p99Ns"`

	StageNs    map[string]int64 `json:"stageNs,omitempty"`
	CacheTiers map[string]int64 `json:"cacheTiers,omitempty"`

	RowsOut  int64 `json:"rowsOut"`
	BytesOut int64 `json:"bytesOut"`
	BytesIn  int64 `json:"bytesIn"`
	Streamed int64 `json:"streamed,omitempty"`

	Retries    int64 `json:"retries,omitempty"`
	Reconnects int64 `json:"reconnects,omitempty"`

	Features []string `json:"features,omitempty"`

	// Exemplar is the trace id of the slowest request of this shape still
	// retained by the trace ring ("/traces?id=<Exemplar>").
	Exemplar string `json:"exemplar,omitempty"`

	SLOBreaches int64 `json:"sloBreaches,omitempty"`
	// BurnRate is the shape's error-budget burn rate: breach ratio divided by
	// the budget (1-objective). 1.0 means burning exactly the budget.
	BurnRate float64 `json:"burnRate,omitempty"`
	// Violating marks shapes whose breach ratio exceeds the budget.
	Violating bool `json:"violating,omitempty"`
}

// SLOSummary is the registry-wide latency-SLO state.
type SLOSummary struct {
	SLOMs     int64    `json:"sloMs"`
	Objective float64  `json:"objective"`
	Calls     int64    `json:"calls"`
	Breaches  int64    `json:"breaches"`
	BurnRate  float64  `json:"burnRate"`
	Violating []string `json:"violating,omitempty"`
}

// Summary is the /statements payload.
type Summary struct {
	// Entries is the tracked shape count; MaxEntries the cardinality bound.
	Entries    int `json:"entries"`
	MaxEntries int `json:"maxEntries"`
	// Observed counts every request recorded since the last reset. Exactness
	// invariant: sum of Statements[].Calls + Other.Calls == Observed, no
	// matter how many shapes were evicted (Statements may be truncated by the
	// limit parameter; Truncated reports how many shapes the limit hid).
	Observed  int64  `json:"observed"`
	Truncated int    `json:"truncated,omitempty"`
	SortedBy  string `json:"sortedBy"`

	Statements []Stat `json:"statements"`
	// Other is the fold bucket of evicted shapes; nil when nothing was ever
	// evicted.
	Other *Stat `json:"other,omitempty"`

	SLO *SLOSummary `json:"slo,omitempty"`
}

func (e *entry) stat(sloNs int64, objective float64) Stat {
	lat := e.lat.Snapshot()
	s := Stat{
		Fingerprint: e.id,
		Template:    e.template,
		Calls:       lat.Count,
		Errors:      atomic.LoadInt64(&e.errors),
		TotalNs:     lat.SumNs,
		MeanNs:      int64(lat.Mean()),
		P50Ns:       int64(lat.Quantile(0.50)),
		P95Ns:       int64(lat.Quantile(0.95)),
		P99Ns:       int64(lat.Quantile(0.99)),
		RowsOut:     atomic.LoadInt64(&e.rowsOut),
		BytesOut:    atomic.LoadInt64(&e.bytesOut),
		BytesIn:     atomic.LoadInt64(&e.bytesIn),
		Streamed:    atomic.LoadInt64(&e.streamed),
		Retries:     atomic.LoadInt64(&e.retries),
		Reconnects:  atomic.LoadInt64(&e.reconns),
		SLOBreaches: atomic.LoadInt64(&e.sloMiss),
	}
	for i, code := range errorCodes {
		if n := atomic.LoadInt64(&e.errByCode[i]); n != 0 {
			if s.ErrorCodes == nil {
				s.ErrorCodes = make(map[string]int64)
			}
			s.ErrorCodes[strconv.Itoa(code)] = n
		}
	}
	if n := atomic.LoadInt64(&e.errByCode[len(errorCodes)]); n != 0 {
		if s.ErrorCodes == nil {
			s.ErrorCodes = make(map[string]int64)
		}
		s.ErrorCodes["other"] = n
	}
	for i := range e.stageNs {
		if n := atomic.LoadInt64(&e.stageNs[i]); n != 0 {
			if s.StageNs == nil {
				s.StageNs = make(map[string]int64)
			}
			s.StageNs[metrics.Stage(i).String()] = n
		}
	}
	for i := range e.tiers {
		if n := atomic.LoadInt64(&e.tiers[i]); n != 0 {
			if s.CacheTiers == nil {
				s.CacheTiers = make(map[string]int64)
			}
			s.CacheTiers[tierNames[i]] = n
		}
	}
	if fs := feature.Set(atomic.LoadUint32(&e.feats)); !fs.Empty() {
		for _, id := range fs.IDs() {
			s.Features = append(s.Features, feature.Lookup(id).Name)
		}
	}
	e.exMu.Lock()
	s.Exemplar = e.exID
	e.exMu.Unlock()
	if sloNs > 0 && s.Calls > 0 {
		budget := 1 - objective
		ratio := float64(s.SLOBreaches) / float64(s.Calls)
		if budget > 0 {
			s.BurnRate = ratio / budget
		}
		s.Violating = ratio > budget
	}
	return s
}

// Snapshot returns a point-in-time view, sorted by sortBy ("calls", "total",
// "p99", or "bytes"; anything else selects calls) descending, truncated to
// limit shapes (limit <= 0 means all). Safe on a nil registry.
func (r *Registry) Snapshot(sortBy string, limit int) Summary {
	if r == nil {
		return Summary{}
	}
	sum := Summary{
		MaxEntries: r.MaxEntries(),
		Observed:   atomic.LoadInt64(&r.observed),
	}
	var stats []Stat
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, e := range sh.m {
			stats = append(stats, e.stat(r.sloNs, r.objective))
		}
		sh.mu.RUnlock()
	}
	sum.Entries = len(stats)
	var key func(s *Stat) int64
	switch sortBy {
	case "total":
		key = func(s *Stat) int64 { return s.TotalNs }
	case "p99":
		key = func(s *Stat) int64 { return s.P99Ns }
	case "bytes":
		key = func(s *Stat) int64 { return s.BytesOut }
	default:
		sortBy = "calls"
		key = func(s *Stat) int64 { return s.Calls }
	}
	sum.SortedBy = sortBy
	sort.Slice(stats, func(i, j int) bool {
		if a, b := key(&stats[i]), key(&stats[j]); a != b {
			return a > b
		}
		return stats[i].Fingerprint < stats[j].Fingerprint
	})
	if limit > 0 && len(stats) > limit {
		sum.Truncated = len(stats) - limit
		stats = stats[:limit]
	}
	sum.Statements = stats
	if r.other.calls() != 0 {
		o := r.other.stat(r.sloNs, r.objective)
		sum.Other = &o
	}
	if r.sloNs > 0 {
		sum.SLO = r.sloSummary(stats)
	}
	return sum
}

func (r *Registry) sloSummary(stats []Stat) *SLOSummary {
	s := &SLOSummary{
		SLOMs:     r.sloNs / int64(time.Millisecond),
		Objective: r.objective,
		Calls:     atomic.LoadInt64(&r.observed),
		Breaches:  atomic.LoadInt64(&r.sloBreaches),
	}
	if budget := 1 - r.objective; budget > 0 && s.Calls > 0 {
		s.BurnRate = (float64(s.Breaches) / float64(s.Calls)) / budget
	}
	for i := range stats {
		if stats[i].Violating {
			s.Violating = append(s.Violating, stats[i].Fingerprint)
		}
	}
	sort.Strings(s.Violating)
	return s
}

// SLOBreaches reports the registry-wide breach count (0 when no SLO is set).
func (r *Registry) SLOBreaches() int64 {
	if r == nil {
		return 0
	}
	return atomic.LoadInt64(&r.sloBreaches)
}

// FeatureCount is one tracked rewrite feature's workload-wide occurrence.
type FeatureCount struct {
	Name  string `json:"name"`
	Class string `json:"class"`
	// Shapes counts tracked statement shapes using the feature; Calls the
	// total calls of those shapes. (A shape's whole call count attributes to
	// each of its features, mirroring the distinct-query counting of §7.1 at
	// per-shape granularity.)
	Shapes int   `json:"shapes"`
	Calls  int64 `json:"calls"`
}

// FeatureView is the /statements?view=features payload: the live Figure 8.
type FeatureView struct {
	// Queries is every request recorded since reset (evictions included).
	Queries int64 `json:"queries"`
	// Approximate flags that shapes were evicted into _other, whose calls
	// cannot be attributed to individual features; per-feature counts are
	// then lower bounds (presence still includes _other's feature set).
	Approximate bool `json:"approximate,omitempty"`

	Features []FeatureCount `json:"features"`
	// ClassQueryPct is the percentage of tracked calls whose shape uses at
	// least one feature of the class (Figure 8b); ClassPresencePct the
	// percentage of the class's 9 tracked features seen at all (Figure 8a).
	ClassQueries     map[string]int64   `json:"classQueries"`
	ClassQueryPct    map[string]float64 `json:"classQueryPct"`
	ClassPresencePct map[string]float64 `json:"classPresencePct"`
}

// Features aggregates the per-shape feature bit-sets into the Figure 8 view.
// Safe on a nil registry.
func (r *Registry) Features() FeatureView {
	if r == nil {
		return FeatureView{}
	}
	v := FeatureView{
		Queries:          atomic.LoadInt64(&r.observed),
		ClassQueries:     make(map[string]int64, 3),
		ClassQueryPct:    make(map[string]float64, 3),
		ClassPresencePct: make(map[string]float64, 3),
	}
	var shapes [feature.Count]int
	var calls [feature.Count]int64
	var classCalls [3]int64
	var tracked int64
	var present feature.Set
	collect := func(e *entry) {
		fs := feature.Set(atomic.LoadUint32(&e.feats))
		n := e.calls()
		tracked += n
		present.Union(fs)
		for _, id := range fs.IDs() {
			shapes[id]++
			calls[id] += n
		}
		for i, c := range feature.Classes {
			if fs.HasClass(c) {
				classCalls[i] += n
			}
		}
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, e := range sh.m {
			collect(e)
		}
		sh.mu.RUnlock()
	}
	if r.other.calls() != 0 {
		// _other's calls cannot be attributed per feature (the bit-set is the
		// union over evicted shapes), so only presence folds in.
		v.Approximate = true
		present.Union(feature.Set(atomic.LoadUint32(&r.other.feats)))
	}
	for id := 0; id < feature.Count; id++ {
		info := feature.Lookup(feature.ID(id))
		v.Features = append(v.Features, FeatureCount{
			Name:   info.Name,
			Class:  info.Class.String(),
			Shapes: shapes[id],
			Calls:  calls[id],
		})
	}
	for i, c := range feature.Classes {
		v.ClassQueries[c.String()] = classCalls[i]
		if tracked > 0 {
			v.ClassQueryPct[c.String()] = 100 * float64(classCalls[i]) / float64(tracked)
		} else {
			v.ClassQueryPct[c.String()] = 0
		}
		n := 0
		for _, f := range feature.ByClass(c) {
			if present.Has(f.ID) {
				n++
			}
		}
		v.ClassPresencePct[c.String()] = 100 * float64(n) / float64(feature.PerClass)
	}
	return v
}
