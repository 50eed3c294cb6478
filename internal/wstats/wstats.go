// Package wstats implements the gateway's per-fingerprint workload
// statistics registry — a pg_stat_statements for the ADV gateway. Every
// request is keyed by the lexical redaction hash of its SQL text
// (fingerprint.TemplateHash: literal values never enter the registry) and
// folded into a per-shape entry accumulating call/error counts (errors
// broken down by frontend code), a compact latency histogram with
// p50/p95/p99, the per-stage time split, cache-tier outcomes, rows and bytes
// in/out (streamed results included), retry/reconnect counts, the §4 rewrite
// feature bit-set, and an optional latency-SLO breach count — the live
// version of the paper's Table 1 / Figure 8 workload characterization.
//
// Cardinality is bounded: the registry holds at most maxEntries shapes,
// admitted with a space-saving policy. When a shard is full, the entry with
// the smallest admission weight is evicted and its counters fold into a
// distinguished "_other" bucket, so registry-wide totals stay exact no
// matter how many shapes the workload has; the newcomer inherits the
// victim's weight + 1, so a genuinely hot new shape can displace incumbents
// while a stream of one-off shapes churns only the bottom slot. Weights
// decay (halve) periodically so formerly hot shapes age out.
//
// Recording is lock-free on the steady-state path: a shard read-lock for the
// map lookup, then atomic adds into the entry — no allocations after a
// shape's first occurrence. Admission, eviction, decay and snapshots take
// the shard write lock.
package wstats

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hyperq/internal/feature"
	"hyperq/internal/fingerprint"
	"hyperq/internal/metrics"
	"hyperq/internal/trace"
	"hyperq/internal/wire/tdp"
)

// Tier is a request's translation-cache outcome.
type Tier uint8

// Cache tiers. TierExactHit is the request tier (byte-identical replay,
// "raw-hit" in traces); TierFingerprintHit the template tier; TierNone marks
// requests that never consulted the cache (DDL, emulation, parse errors,
// cache disabled).
const (
	TierNone Tier = iota
	TierExactHit
	TierFingerprintHit
	TierMiss
	TierBypass
	numTiers
)

var tierNames = [numTiers]string{"none", "exact-hit", "fingerprint-hit", "miss", "bypass"}

// errorCodes are the frontend failure codes broken out per shape; everything
// else lands in a final "other" slot. Kept in sync with the tdp registry by
// construction — the values are the registry constants themselves.
var errorCodes = [...]int{
	tdp.CodeWriteStateUnknown,
	tdp.CodeBackendUnavailable,
	tdp.CodeGatewaySaturated,
	tdp.CodeClientTooSlow,
	tdp.CodeResultInterrupted,
	tdp.CodeSyntaxError,
	tdp.CodeSemanticError,
	tdp.CodeObjectExists,
	tdp.CodeObjectNotFound,
	tdp.CodeBadMacroArgument,
	tdp.CodeMacroNotFound,
}

const numErrSlots = len(errorCodes) + 1

func errSlot(code int) int {
	for i, c := range errorCodes {
		if c == code {
			return i
		}
	}
	return len(errorCodes)
}

// Obs is one request's observation, assembled by the session pipeline and
// recorded exactly once per request.
type Obs struct {
	// DurNs is the whole-request wall time.
	DurNs int64
	// StageNs is the per-stage time split, indexed by metrics.Stage.
	StageNs [metrics.NumStages]int64
	// Tier is the translation-cache outcome.
	Tier Tier
	// Failed marks a request that returned an error; ErrCode its frontend
	// failure code (0 when the failure carried none).
	Failed  bool
	ErrCode int
	// RowsOut/BytesOut measure the result delivered to the client (bytes in
	// the backend TDF wire encoding, streamed and buffered paths alike);
	// BytesIn the request text size.
	RowsOut  int64
	BytesOut int64
	BytesIn  int64
	// Streamed marks results delivered through the streaming pipeline.
	Streamed bool
	// Retries/Reconnects count the resilient driver's recovery actions during
	// this request (0 when tracing is off — they are derived from the trace).
	Retries    int64
	Reconnects int64
	// Feats is the request's rewrite-feature bit-set.
	Feats feature.Set
	// Trace, when non-nil, is the finished request trace — the exemplar
	// candidate pinned when this is the shape's slowest request so far.
	Trace *trace.Trace
}

// entry accumulates one statement shape. All counters are updated atomically
// so steady-state recording takes no locks; admit is the space-saving
// eviction weight (an eviction priority, not a call count — it is inherited
// across evictions and decayed).
type entry struct {
	hash     uint64
	id       string
	template string
	admit    int64
	// evicted flips once when the entry is folded into _other; active counts
	// in-flight recorders. The evictor sets evicted, then waits for active to
	// drain before reading counters, so no observation is ever lost between a
	// shape's entry and the _other bucket.
	evicted int32
	active  int64

	errors    int64
	errByCode [numErrSlots]int64
	// lat is the shape's latency histogram; its count and exact sum are the
	// shape's calls and total time.
	lat      metrics.Compact
	stageNs  [metrics.NumStages]int64
	tiers    [numTiers]int64
	rowsOut  int64
	bytesOut int64
	bytesIn  int64
	streamed int64
	retries  int64
	reconns  int64
	feats    uint32
	sloMiss  int64

	exMu    sync.Mutex
	exID    string
	exDurNs int64
}

// record folds one observation into the entry; false means the entry was
// evicted concurrently and the caller must re-resolve the shape.
func (e *entry) record(o *Obs, sloNs int64) bool {
	atomic.AddInt64(&e.active, 1)
	if atomic.LoadInt32(&e.evicted) != 0 {
		atomic.AddInt64(&e.active, -1)
		return false
	}
	e.lat.Observe(time.Duration(o.DurNs))
	for i, ns := range o.StageNs {
		if ns != 0 {
			atomic.AddInt64(&e.stageNs[i], ns)
		}
	}
	atomic.AddInt64(&e.tiers[o.Tier], 1)
	if o.Failed {
		atomic.AddInt64(&e.errors, 1)
		atomic.AddInt64(&e.errByCode[errSlot(o.ErrCode)], 1)
	}
	if o.RowsOut != 0 {
		atomic.AddInt64(&e.rowsOut, o.RowsOut)
	}
	if o.BytesOut != 0 {
		atomic.AddInt64(&e.bytesOut, o.BytesOut)
	}
	if o.BytesIn != 0 {
		atomic.AddInt64(&e.bytesIn, o.BytesIn)
	}
	if o.Streamed {
		atomic.AddInt64(&e.streamed, 1)
	}
	if o.Retries != 0 {
		atomic.AddInt64(&e.retries, o.Retries)
	}
	if o.Reconnects != 0 {
		atomic.AddInt64(&e.reconns, o.Reconnects)
	}
	if o.Feats != 0 {
		orUint32(&e.feats, uint32(o.Feats))
	}
	if sloNs > 0 && o.DurNs > sloNs {
		atomic.AddInt64(&e.sloMiss, 1)
	}
	atomic.AddInt64(&e.admit, 1)
	atomic.AddInt64(&e.active, -1)
	return true
}

func orUint32(p *uint32, v uint32) {
	for {
		old := atomic.LoadUint32(p)
		if old&v == v || atomic.CompareAndSwapUint32(p, old, old|v) {
			return
		}
	}
}

// Pinner retains exemplar traces against ring churn. *trace.Ring implements
// it; a nil Pinner disables exemplars.
type Pinner interface {
	Pin(t *trace.Trace)
	Unpin(id string)
}

// calls reports the shape's recorded requests.
func (e *entry) calls() int64 { return e.lat.Snapshot().Count }

// Registry bounds.
const (
	// maxEntries bounds the tracked shape count; past it the space-saving
	// policy folds cold shapes into _other.
	maxEntries = 1024
	// sloObjective is the target fraction of requests meeting the SLO (the
	// error budget is 1-sloObjective); used for burn rates and the violating
	// flag.
	sloObjective = 0.99
)

// Config configures a Registry.
type Config struct {
	// SLO, when positive, is the per-request latency objective: requests
	// slower than it count as SLO breaches per shape and registry-wide.
	SLO time.Duration
	// Pinner retains each shape's slowest trace as an exemplar.
	Pinner Pinner
}

type shard struct {
	mu         sync.RWMutex
	m          map[uint64]*entry
	sinceDecay int64
}

// Registry is the sharded, bounded statement-statistics store.
type Registry struct {
	cfg         Config
	sloNs       int64
	objective   float64
	shards      []shard
	maxPerShard int
	// other is the fold bucket: evicted shapes' counters accumulate here so
	// totals over the registry stay exact.
	other entry
	// observed counts every recorded request; sloBreaches every request over
	// the SLO — both survive eviction by construction.
	observed    int64
	sloBreaches int64
}

// decayPeriod is the per-shard observation count between weight halvings,
// as a multiple of the shard's entry bound.
const decayPeriod = 8

// New creates a registry of up to maxEntries shapes.
func New(cfg Config) *Registry { return newRegistry(cfg, maxEntries) }

// newRegistry creates a registry of up to bound shapes. The registry's own
// bound spreads over 16 shards for lock spreading; the small bounds tests use
// get a single shard, so the bound stays exact.
func newRegistry(cfg Config, bound int) *Registry {
	nShards := 16
	if bound < 64 {
		nShards = 1
	}
	r := &Registry{
		cfg:         cfg,
		sloNs:       int64(cfg.SLO),
		objective:   sloObjective,
		shards:      make([]shard, nShards),
		maxPerShard: bound / nShards,
	}
	if r.maxPerShard < 1 {
		r.maxPerShard = 1
	}
	for i := range r.shards {
		r.shards[i].m = make(map[uint64]*entry)
	}
	r.other.id = "_other"
	r.other.template = "_other"
	return r
}

// MaxEntries reports the configured cardinality bound.
func (r *Registry) MaxEntries() int {
	if r == nil {
		return 0
	}
	return r.maxPerShard * len(r.shards)
}

// Observed reports the total requests recorded since the last reset.
func (r *Registry) Observed() int64 {
	if r == nil {
		return 0
	}
	return atomic.LoadInt64(&r.observed)
}

// Entries reports the tracked shape count (excluding _other).
func (r *Registry) Entries() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Observe records one request. sql is the raw request text, used only to
// materialize the redacted template on a shape's first admission. Safe on a
// nil registry.
func (r *Registry) Observe(hash uint64, sql string, o *Obs) {
	if r == nil {
		return
	}
	atomic.AddInt64(&r.observed, 1)
	if r.sloNs > 0 && o.DurNs > r.sloNs {
		atomic.AddInt64(&r.sloBreaches, 1)
	}
	sh := &r.shards[hash%uint64(len(r.shards))]
	for {
		sh.mu.RLock()
		e := sh.m[hash]
		sh.mu.RUnlock()
		if e == nil {
			e = r.admit(sh, hash, sql)
		}
		if e.record(o, r.sloNs) {
			r.noteExemplar(e, o)
			if atomic.AddInt64(&sh.sinceDecay, 1) >= int64(decayPeriod*r.maxPerShard) {
				r.decay(sh)
			}
			return
		}
		// Lost the race against eviction: re-resolve (the retry re-admits the
		// shape or lands on its replacement), so no observation is dropped.
	}
}

// admit inserts the shape, evicting the lightest incumbent into _other when
// the shard is full (the space-saving step).
func (r *Registry) admit(sh *shard, hash uint64, sql string) *entry {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.m[hash]; e != nil {
		return e
	}
	e := &entry{
		hash:     hash,
		id:       fingerprint.ShortID(hash),
		template: fingerprint.TemplateText(sql),
		admit:    1,
	}
	if len(sh.m) >= r.maxPerShard {
		var victim *entry
		for _, cand := range sh.m {
			if victim == nil || atomic.LoadInt64(&cand.admit) < atomic.LoadInt64(&victim.admit) {
				victim = cand
			}
		}
		delete(sh.m, victim.hash)
		r.fold(victim)
		// Space-saving inheritance: the newcomer starts at the victim's
		// weight + 1, so it cannot itself be displaced by the next one-off
		// shape, yet a truly hot shape accumulates weight and stays.
		e.admit = atomic.LoadInt64(&victim.admit) + 1
	}
	sh.m[hash] = e
	return e
}

// fold drains the victim's in-flight recorders, then moves its counters into
// the _other bucket. Called with the victim already unreachable (deleted
// from the shard map, evicted flag set below), so after the active count
// drains no new observation can land on it and the fold is exact.
func (r *Registry) fold(victim *entry) {
	atomic.StoreInt32(&victim.evicted, 1)
	for atomic.LoadInt64(&victim.active) > 0 {
		runtime.Gosched()
	}
	o := &r.other
	atomic.AddInt64(&o.errors, atomic.LoadInt64(&victim.errors))
	for i := range victim.errByCode {
		if n := atomic.LoadInt64(&victim.errByCode[i]); n != 0 {
			atomic.AddInt64(&o.errByCode[i], n)
		}
	}
	o.lat.Merge(&victim.lat)
	for i := range victim.stageNs {
		if n := atomic.LoadInt64(&victim.stageNs[i]); n != 0 {
			atomic.AddInt64(&o.stageNs[i], n)
		}
	}
	for i := range victim.tiers {
		if n := atomic.LoadInt64(&victim.tiers[i]); n != 0 {
			atomic.AddInt64(&o.tiers[i], n)
		}
	}
	atomic.AddInt64(&o.rowsOut, atomic.LoadInt64(&victim.rowsOut))
	atomic.AddInt64(&o.bytesOut, atomic.LoadInt64(&victim.bytesOut))
	atomic.AddInt64(&o.bytesIn, atomic.LoadInt64(&victim.bytesIn))
	atomic.AddInt64(&o.streamed, atomic.LoadInt64(&victim.streamed))
	atomic.AddInt64(&o.retries, atomic.LoadInt64(&victim.retries))
	atomic.AddInt64(&o.reconns, atomic.LoadInt64(&victim.reconns))
	atomic.AddInt64(&o.sloMiss, atomic.LoadInt64(&victim.sloMiss))
	orUint32(&o.feats, atomic.LoadUint32(&victim.feats))
	victim.exMu.Lock()
	if victim.exID != "" && r.cfg.Pinner != nil {
		r.cfg.Pinner.Unpin(victim.exID)
	}
	victim.exID = ""
	victim.exMu.Unlock()
}

// decay halves every admission weight in the shard, so shapes hot long ago
// eventually become evictable.
func (r *Registry) decay(sh *shard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if atomic.LoadInt64(&sh.sinceDecay) < int64(decayPeriod*r.maxPerShard) {
		return // another goroutine decayed first
	}
	atomic.StoreInt64(&sh.sinceDecay, 0)
	for _, e := range sh.m {
		for {
			w := atomic.LoadInt64(&e.admit)
			if atomic.CompareAndSwapInt64(&e.admit, w, w/2) {
				break
			}
		}
	}
}

// noteExemplar pins the trace as the shape's exemplar when it is the slowest
// request seen for the shape.
func (r *Registry) noteExemplar(e *entry, o *Obs) {
	if o.Trace == nil || o.DurNs <= atomic.LoadInt64(&e.exDurNs) {
		return
	}
	e.exMu.Lock()
	defer e.exMu.Unlock()
	if atomic.LoadInt32(&e.evicted) != 0 || o.DurNs <= atomic.LoadInt64(&e.exDurNs) {
		return
	}
	if r.cfg.Pinner != nil {
		r.cfg.Pinner.Pin(o.Trace)
		if e.exID != "" {
			r.cfg.Pinner.Unpin(e.exID)
		}
	}
	e.exID = o.Trace.ID
	atomic.StoreInt64(&e.exDurNs, o.DurNs)
}

// Reset drops every tracked shape, the _other bucket, and the SLO counters,
// unpinning all exemplars. Safe on a nil registry.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			atomic.StoreInt32(&e.evicted, 1)
			for atomic.LoadInt64(&e.active) > 0 {
				runtime.Gosched()
			}
			e.exMu.Lock()
			if e.exID != "" && r.cfg.Pinner != nil {
				r.cfg.Pinner.Unpin(e.exID)
			}
			e.exID = ""
			e.exMu.Unlock()
		}
		sh.m = make(map[uint64]*entry)
		atomic.StoreInt64(&sh.sinceDecay, 0)
		sh.mu.Unlock()
	}
	o := &r.other
	atomic.StoreInt64(&o.errors, 0)
	for i := range o.errByCode {
		atomic.StoreInt64(&o.errByCode[i], 0)
	}
	o.lat.Reset()
	for i := range o.stageNs {
		atomic.StoreInt64(&o.stageNs[i], 0)
	}
	for i := range o.tiers {
		atomic.StoreInt64(&o.tiers[i], 0)
	}
	atomic.StoreInt64(&o.rowsOut, 0)
	atomic.StoreInt64(&o.bytesOut, 0)
	atomic.StoreInt64(&o.bytesIn, 0)
	atomic.StoreInt64(&o.streamed, 0)
	atomic.StoreInt64(&o.retries, 0)
	atomic.StoreInt64(&o.reconns, 0)
	atomic.StoreInt64(&o.sloMiss, 0)
	atomic.StoreUint32(&o.feats, 0)
	atomic.StoreInt64(&r.observed, 0)
	atomic.StoreInt64(&r.sloBreaches, 0)
}
