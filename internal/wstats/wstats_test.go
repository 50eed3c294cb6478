package wstats

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperq/internal/feature"
	"hyperq/internal/fingerprint"
	"hyperq/internal/metrics"
	"hyperq/internal/trace"
	"hyperq/internal/wire/tdp"
)

// obsMs builds a successful observation with the given wall time.
func obsMs(ms int64) *Obs {
	return &Obs{DurNs: ms * int64(time.Millisecond)}
}

// recordingPinner is a thread-safe fake Pinner tracking the live pin set and
// every pin/unpin event.
type recordingPinner struct {
	mu     sync.Mutex
	live   map[string]bool
	pins   []string
	unpins []string
}

func newRecordingPinner() *recordingPinner {
	return &recordingPinner{live: make(map[string]bool)}
}

func (p *recordingPinner) Pin(t *trace.Trace) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live[t.ID] = true
	p.pins = append(p.pins, t.ID)
}

func (p *recordingPinner) Unpin(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.live, id)
	p.unpins = append(p.unpins, id)
}

func (p *recordingPinner) liveSet() map[string]bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]bool, len(p.live))
	for k := range p.live {
		out[k] = true
	}
	return out
}

func TestObserveAccumulatesPerShape(t *testing.T) {
	r := newRegistry(Config{}, 8)
	sql := "SELECT a FROM t WHERE id = 42"
	hash := fingerprint.TemplateHash(sql)

	var feats feature.Set
	feats.Add(feature.Qualify)
	feats.Add(feature.SelAbbrev)

	o := &Obs{
		DurNs:      int64(5 * time.Millisecond),
		Tier:       TierMiss,
		RowsOut:    10,
		BytesOut:   400,
		BytesIn:    int64(len(sql)),
		Streamed:   true,
		Retries:    2,
		Reconnects: 1,
		Feats:      feats,
	}
	o.StageNs[metrics.StageParse] = 100
	o.StageNs[metrics.StageExecute] = 900
	r.Observe(hash, sql, o)
	r.Observe(hash, sql, &Obs{DurNs: int64(1 * time.Millisecond), Tier: TierExactHit})
	r.Observe(hash, sql, &Obs{
		DurNs: int64(2 * time.Millisecond), Tier: TierNone,
		Failed: true, ErrCode: tdp.CodeSyntaxError,
	})
	r.Observe(hash, sql, &Obs{
		DurNs: int64(2 * time.Millisecond), Tier: TierNone,
		Failed: true, ErrCode: 9999, // not a registry code: "other" slot
	})

	sum := r.Snapshot("calls", 0)
	if sum.Entries != 1 || len(sum.Statements) != 1 {
		t.Fatalf("want 1 entry, got %d (%d statements)", sum.Entries, len(sum.Statements))
	}
	if sum.Observed != 4 {
		t.Fatalf("observed = %d, want 4", sum.Observed)
	}
	if sum.Other != nil {
		t.Fatalf("no eviction happened, Other should be nil, got %+v", sum.Other)
	}
	s := sum.Statements[0]
	if s.Fingerprint != fingerprint.ShortID(hash) {
		t.Errorf("fingerprint = %q, want %q", s.Fingerprint, fingerprint.ShortID(hash))
	}
	if want := fingerprint.TemplateText(sql); s.Template != want {
		t.Errorf("template = %q, want %q (raw literal must be redacted)", s.Template, want)
	}
	if s.Calls != 4 || s.Errors != 2 {
		t.Errorf("calls/errors = %d/%d, want 4/2", s.Calls, s.Errors)
	}
	if got := s.ErrorCodes[fmt.Sprint(tdp.CodeSyntaxError)]; got != 1 {
		t.Errorf("errorCodes[syntax] = %d, want 1", got)
	}
	if got := s.ErrorCodes["other"]; got != 1 {
		t.Errorf("errorCodes[other] = %d, want 1", got)
	}
	if want := int64(10 * time.Millisecond); s.TotalNs != want {
		t.Errorf("totalNs = %d, want %d", s.TotalNs, want)
	}
	if s.RowsOut != 10 || s.BytesOut != 400 || s.BytesIn != int64(len(sql)) {
		t.Errorf("rows/bytesOut/bytesIn = %d/%d/%d", s.RowsOut, s.BytesOut, s.BytesIn)
	}
	if s.Streamed != 1 || s.Retries != 2 || s.Reconnects != 1 {
		t.Errorf("streamed/retries/reconnects = %d/%d/%d", s.Streamed, s.Retries, s.Reconnects)
	}
	if s.StageNs["parse"] != 100 || s.StageNs["execute"] != 900 {
		t.Errorf("stageNs = %v", s.StageNs)
	}
	if s.CacheTiers["miss"] != 1 || s.CacheTiers["exact-hit"] != 1 || s.CacheTiers["none"] != 2 {
		t.Errorf("cacheTiers = %v", s.CacheTiers)
	}
	wantFeats := map[string]bool{
		feature.Lookup(feature.SelAbbrev).Name: true,
		feature.Lookup(feature.Qualify).Name:   true,
	}
	if len(s.Features) != 2 || !wantFeats[s.Features[0]] || !wantFeats[s.Features[1]] {
		t.Errorf("features = %v, want %v", s.Features, wantFeats)
	}
	if s.MeanNs <= 0 || s.P99Ns < s.P50Ns {
		t.Errorf("latency stats mean=%d p50=%d p99=%d", s.MeanNs, s.P50Ns, s.P99Ns)
	}
}

// TestCardinalityBoundExactTotals is the core exactness guarantee: with far
// more shapes than the bound, the tracked count stays bounded while
// sum(tracked calls) + _other calls == observed, always.
func TestCardinalityBoundExactTotals(t *testing.T) {
	const bound = 4
	r := newRegistry(Config{}, bound)
	total := int64(0)
	for i := 0; i < 40; i++ {
		calls := int64(i%5 + 1)
		for c := int64(0); c < calls; c++ {
			r.Observe(uint64(i+1), fmt.Sprintf("select c%d from t", i), obsMs(1))
		}
		total += calls
	}
	if n := r.Entries(); n > bound {
		t.Fatalf("entries = %d, exceeds bound %d", n, bound)
	}
	sum := r.Snapshot("calls", 0)
	if sum.MaxEntries != bound {
		t.Errorf("maxEntries = %d, want %d", sum.MaxEntries, bound)
	}
	if sum.Other == nil {
		t.Fatal("evictions occurred but Other is nil")
	}
	var tracked int64
	for _, s := range sum.Statements {
		tracked += s.Calls
	}
	if got := tracked + sum.Other.Calls; got != total || sum.Observed != total {
		t.Fatalf("tracked %d + other %d = %d, observed %d, want %d",
			tracked, sum.Other.Calls, got, sum.Observed, total)
	}
}

// TestSpaceSavingKeepsHotShape: a shape with a large accumulated weight must
// survive a burst of one-off shapes (each one-off only displaces the lightest
// slot; the churn slot's weight climbs 2 per one-off, well below the hot
// weight here). With enough churn AND decay the hot shape would eventually
// age out — that is the intended behavior, not what this test pins.
func TestSpaceSavingKeepsHotShape(t *testing.T) {
	r := newRegistry(Config{}, 4)
	const hot = uint64(1)
	for i := 0; i < 100; i++ {
		r.Observe(hot, "select hot from t", obsMs(1))
	}
	for i := 0; i < 10; i++ {
		r.Observe(uint64(1000+i), fmt.Sprintf("select cold%d from t", i), obsMs(1))
	}
	sh := &r.shards[hot%uint64(len(r.shards))]
	sh.mu.RLock()
	_, present := sh.m[hot]
	sh.mu.RUnlock()
	if !present {
		t.Fatal("hot shape was evicted by one-off churn")
	}
}

// TestDecayHalvesAdmissionWeights: after decayPeriod*maxPerShard observations
// on one shard, every weight in the shard halves, so stale-hot shapes become
// evictable.
func TestDecayHalvesAdmissionWeights(t *testing.T) {
	r := newRegistry(Config{}, 2) // single shard, maxPerShard=2, decay at 16 obs
	const h = uint64(7)
	threshold := decayPeriod * r.maxPerShard
	for i := 0; i < threshold; i++ {
		r.Observe(h, "select a from t", obsMs(1))
	}
	sh := &r.shards[h%uint64(len(r.shards))]
	sh.mu.RLock()
	w := atomic.LoadInt64(&sh.m[h].admit)
	sh.mu.RUnlock()
	if want := int64(threshold) / 2; w != want {
		t.Fatalf("post-decay weight = %d, want %d", w, want)
	}
}

func TestSLOBurnAndViolating(t *testing.T) {
	// Objective 0.75 so the budget (0.25) is exact in floating point: a shape
	// breaching at exactly the budget must read as burn 1.0, not violating.
	r := newRegistry(Config{SLO: time.Millisecond}, 8)
	r.objective = 0.75
	// Shape A: 1 breach in 4 calls — ratio equals the budget, not violating.
	for i := 0; i < 3; i++ {
		r.Observe(1, "select fast", &Obs{DurNs: int64(100 * time.Microsecond)})
	}
	r.Observe(1, "select fast", obsMs(2))
	// Shape B: every call breaches — violating.
	for i := 0; i < 4; i++ {
		r.Observe(2, "select slow", obsMs(5))
	}

	if got := r.SLOBreaches(); got != 5 {
		t.Fatalf("registry breaches = %d, want 5", got)
	}
	sum := r.Snapshot("calls", 0)
	if sum.SLO == nil {
		t.Fatal("Summary.SLO nil with SLO configured")
	}
	if sum.SLO.SLOMs != 1 || sum.SLO.Objective != 0.75 {
		t.Errorf("slo summary = %+v", sum.SLO)
	}
	if sum.SLO.Calls != 8 || sum.SLO.Breaches != 5 {
		t.Errorf("slo calls/breaches = %d/%d, want 8/5", sum.SLO.Calls, sum.SLO.Breaches)
	}
	// Burn: (5/8)/0.25 = 2.5.
	if sum.SLO.BurnRate < 2.49 || sum.SLO.BurnRate > 2.51 {
		t.Errorf("burn rate = %f", sum.SLO.BurnRate)
	}
	slowFP := fingerprint.ShortID(2)
	if len(sum.SLO.Violating) != 1 || sum.SLO.Violating[0] != slowFP {
		t.Errorf("violating = %v, want [%s]", sum.SLO.Violating, slowFP)
	}
	for _, s := range sum.Statements {
		switch s.Fingerprint {
		case fingerprint.ShortID(1):
			if s.Violating || s.SLOBreaches != 1 {
				t.Errorf("fast shape violating=%v breaches=%d", s.Violating, s.SLOBreaches)
			}
			// ratio 0.25 / budget 0.25 = burn 1.0: at, not over, budget.
			if s.BurnRate < 0.99 || s.BurnRate > 1.01 {
				t.Errorf("fast shape burn = %f, want 1.0", s.BurnRate)
			}
		case slowFP:
			if !s.Violating || s.SLOBreaches != 4 {
				t.Errorf("slow shape violating=%v breaches=%d", s.Violating, s.SLOBreaches)
			}
		}
	}
}

func TestExemplarPinsSlowestTrace(t *testing.T) {
	p := newRecordingPinner()
	r := newRegistry(Config{Pinner: p}, 8)
	h := uint64(1)
	mk := func(id string, ms int64) *Obs {
		o := obsMs(ms)
		o.Trace = &trace.Trace{ID: id}
		return o
	}
	r.Observe(h, "select a", mk("t-1", 5))
	r.Observe(h, "select a", mk("t-2", 2)) // faster: not an exemplar
	r.Observe(h, "select a", mk("t-3", 9)) // new slowest: replaces t-1

	sum := r.Snapshot("calls", 0)
	if got := sum.Statements[0].Exemplar; got != "t-3" {
		t.Fatalf("exemplar = %q, want t-3", got)
	}
	live := p.liveSet()
	if !live["t-3"] || live["t-1"] || live["t-2"] {
		t.Fatalf("live pins = %v, want exactly {t-3}", live)
	}

	// Eviction unpins the victim's exemplar.
	r2 := newRegistry(Config{Pinner: p}, 1)
	r2.Observe(1, "select a", mk("e-1", 5))
	r2.Observe(2, "select b", obsMs(1)) // evicts shape 1
	if p.liveSet()["e-1"] {
		t.Fatal("evicted shape's exemplar still pinned")
	}

	// Reset unpins everything.
	r.Reset()
	if l := p.liveSet(); len(l) != 0 {
		t.Fatalf("pins survive Reset: %v", l)
	}
}

func TestResetClearsEverything(t *testing.T) {
	r := newRegistry(Config{SLO: time.Millisecond}, 2)
	for i := 0; i < 10; i++ {
		r.Observe(uint64(i+1), fmt.Sprintf("select c%d", i), obsMs(5))
	}
	if r.Entries() == 0 || r.Observed() == 0 || r.SLOBreaches() == 0 {
		t.Fatal("setup did not populate registry")
	}
	r.Reset()
	if n := r.Entries(); n != 0 {
		t.Errorf("entries after reset = %d", n)
	}
	if n := r.Observed(); n != 0 {
		t.Errorf("observed after reset = %d", n)
	}
	if n := r.SLOBreaches(); n != 0 {
		t.Errorf("slo breaches after reset = %d", n)
	}
	sum := r.Snapshot("calls", 0)
	if sum.Other != nil {
		t.Errorf("_other survives reset: %+v", sum.Other)
	}
	// Registry remains usable after reset.
	r.Observe(1, "select a", obsMs(1))
	if r.Observed() != 1 || r.Entries() != 1 {
		t.Error("registry unusable after reset")
	}
}

func TestSnapshotSortAndLimit(t *testing.T) {
	r := newRegistry(Config{}, 8)
	// Shape 1: 3 calls, cheap. Shape 2: 1 call, slow, big. Shape 3: 2 calls.
	for i := 0; i < 3; i++ {
		r.Observe(1, "a", obsMs(1))
	}
	r.Observe(2, "b", &Obs{DurNs: int64(50 * time.Millisecond), BytesOut: 1 << 20})
	for i := 0; i < 2; i++ {
		r.Observe(3, "c", obsMs(2))
	}
	fp := func(h uint64) string { return fingerprint.ShortID(h) }

	cases := []struct {
		sortBy string
		first  string
	}{
		{"calls", fp(1)},
		{"total", fp(2)},
		{"p99", fp(2)},
		{"bytes", fp(2)},
		{"bogus", fp(1)}, // falls back to calls
	}
	for _, tc := range cases {
		sum := r.Snapshot(tc.sortBy, 0)
		if sum.Statements[0].Fingerprint != tc.first {
			t.Errorf("sort %q: first = %s, want %s", tc.sortBy, sum.Statements[0].Fingerprint, tc.first)
		}
	}
	sum := r.Snapshot("calls", 2)
	if len(sum.Statements) != 2 || sum.Truncated != 1 {
		t.Errorf("limit=2: %d statements, truncated=%d, want 2/1", len(sum.Statements), sum.Truncated)
	}
	if sum.Entries != 3 {
		t.Errorf("entries = %d, want 3 (limit must not hide the count)", sum.Entries)
	}
}

func TestFeaturesView(t *testing.T) {
	r := newRegistry(Config{}, 8)
	var fsA, fsB feature.Set
	fsA.Add(feature.SelAbbrev) // translation
	fsA.Add(feature.Qualify)   // transformation
	fsB.Add(feature.Macro)     // emulation
	for i := 0; i < 3; i++ {
		r.Observe(1, "a", &Obs{DurNs: 1, Feats: fsA})
	}
	r.Observe(2, "b", &Obs{DurNs: 1, Feats: fsB})
	r.Observe(3, "c", &Obs{DurNs: 1}) // no features

	v := r.Features()
	if v.Queries != 5 || v.Approximate {
		t.Fatalf("queries=%d approximate=%v, want 5/false", v.Queries, v.Approximate)
	}
	byName := map[string]FeatureCount{}
	for _, f := range v.Features {
		byName[f.Name] = f
	}
	if f := byName[feature.Lookup(feature.SelAbbrev).Name]; f.Shapes != 1 || f.Calls != 3 {
		t.Errorf("SelAbbrev = %+v, want shapes=1 calls=3", f)
	}
	if f := byName[feature.Lookup(feature.Macro).Name]; f.Shapes != 1 || f.Calls != 1 {
		t.Errorf("Macro = %+v, want shapes=1 calls=1", f)
	}
	tr := feature.ClassTranslation.String()
	em := feature.ClassEmulation.String()
	if v.ClassQueries[tr] != 3 || v.ClassQueries[em] != 1 {
		t.Errorf("classQueries = %v", v.ClassQueries)
	}
	// 3 of 5 tracked calls use a translation feature.
	if pct := v.ClassQueryPct[tr]; pct < 59.9 || pct > 60.1 {
		t.Errorf("translation classQueryPct = %f, want 60", pct)
	}
	// 1 of the 9 tracked features per class present.
	want := 100.0 / float64(feature.PerClass)
	if pct := v.ClassPresencePct[tr]; pct < want-0.1 || pct > want+0.1 {
		t.Errorf("translation presencePct = %f, want %f", pct, want)
	}

	// Eviction folds presence into _other and flags the view approximate.
	r2 := newRegistry(Config{}, 1)
	r2.Observe(1, "a", &Obs{DurNs: 1, Feats: fsB})
	r2.Observe(2, "b", &Obs{DurNs: 1}) // evicts shape 1 into _other
	v2 := r2.Features()
	if !v2.Approximate {
		t.Fatal("eviction did not flag the feature view approximate")
	}
	if pct := v2.ClassPresencePct[em]; pct < want-0.1 {
		t.Errorf("evicted shape's feature presence lost: emulation pct = %f", pct)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Observe(1, "select a", obsMs(1)) // must not panic
	r.Reset()
	if r.Entries() != 0 || r.Observed() != 0 || r.MaxEntries() != 0 || r.SLOBreaches() != 0 {
		t.Error("nil registry accessors not zero")
	}
	if sum := r.Snapshot("calls", 0); sum.Statements != nil {
		t.Error("nil registry snapshot non-empty")
	}
	if v := r.Features(); v.Queries != 0 {
		t.Error("nil registry feature view non-empty")
	}
}

// TestConcurrentObserveExactTotals hammers a tiny registry from 16 goroutines
// with far more shapes than slots, then verifies the exactness invariant: not
// one observation may be lost to an admit/evict race.
func TestConcurrentObserveExactTotals(t *testing.T) {
	const (
		goroutines = 16
		perG       = 2000
		shapes     = 64
	)
	r := newRegistry(Config{SLO: time.Microsecond}, 8)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var fs feature.Set
			fs.Add(feature.ID(g % feature.Count))
			for i := 0; i < perG; i++ {
				h := uint64(g*perG+i)%shapes + 1
				o := &Obs{
					DurNs:    int64(i%10+1) * int64(time.Millisecond),
					Tier:     Tier(i % int(numTiers)),
					RowsOut:  1,
					BytesOut: 10,
					Feats:    fs,
				}
				if i%7 == 0 {
					o.Failed = true
					o.ErrCode = tdp.CodeBackendUnavailable
				}
				r.Observe(h, "select x from t", o)
			}
		}(g)
	}
	wg.Wait()

	const total = goroutines * perG
	if got := r.Observed(); got != total {
		t.Fatalf("observed = %d, want %d", got, total)
	}
	if n := r.Entries(); n > 8 {
		t.Fatalf("entries = %d, exceeds bound 8", n)
	}
	sum := r.Snapshot("calls", 0)
	var calls, rows, bytes, errs int64
	for _, s := range sum.Statements {
		calls += s.Calls
		rows += s.RowsOut
		bytes += s.BytesOut
		errs += s.Errors
	}
	if sum.Other != nil {
		calls += sum.Other.Calls
		rows += sum.Other.RowsOut
		bytes += sum.Other.BytesOut
		errs += sum.Other.Errors
	}
	if calls != total {
		t.Fatalf("calls(tracked)+calls(_other) = %d, want %d — observations lost", calls, total)
	}
	if rows != total || bytes != total*10 {
		t.Fatalf("rows/bytes = %d/%d, want %d/%d", rows, bytes, total, total*10)
	}
	// Each goroutine fails ceil(perG/7) of its requests (i%7==0).
	wantErrs := int64(goroutines * ((perG + 6) / 7))
	if errs != wantErrs {
		t.Fatalf("errors = %d, want %d", errs, wantErrs)
	}
	// All requests are >= 1ms, so every one breaches the 1µs SLO.
	if b := r.SLOBreaches(); b != total {
		t.Fatalf("slo breaches = %d, want %d", b, total)
	}
}

// TestSteadyStateRecordingAllocationFree: once a shape is admitted, Observe
// must not allocate — the per-request stats tax is pure atomics.
func TestSteadyStateRecordingAllocationFree(t *testing.T) {
	r := New(Config{SLO: time.Second})
	const sql = "SELECT a, b FROM t WHERE id = 7"
	hash := fingerprint.TemplateHash(sql)
	var fs feature.Set
	fs.Add(feature.Qualify)
	o := &Obs{DurNs: int64(time.Millisecond), Tier: TierFingerprintHit, RowsOut: 3, BytesOut: 120, Feats: fs}
	o.StageNs[metrics.StageParse] = 50
	r.Observe(hash, sql, o) // admission: allowed to allocate

	if avg := testing.AllocsPerRun(1000, func() {
		r.Observe(hash, sql, o)
	}); avg != 0 {
		t.Fatalf("steady-state Observe allocates %.1f per call, want 0", avg)
	}
}
