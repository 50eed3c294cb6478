// Package trace implements per-request pipeline tracing for the gateway: a
// Trace is created when a frontend request arrives at the protocol handler
// and follows the statement through algebrize (parse + bind), transform,
// serialize, cache lookup, backend execution (including retries, reconnects
// and session replay inside the resilient driver), and result conversion.
// Each stage records a Span in a tree rooted at the request; the finished
// trace carries the rewritten SQL-B text, the cache outcome, the emulation
// fan-out (number of backend requests one frontend statement expanded into),
// and an error classification — the per-statement processing log a
// replatforming engineer uses to see what the virtualization layer did.
//
// All methods are nil-receiver safe so instrumented code never has to guard
// on tracing being enabled; with tracing off every call is a no-op.
package trace

import (
	"context"
	"encoding/json"
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed stage (or instantaneous event, Duration 0) within a
// trace. Start is the offset from the trace start.
type Span struct {
	Name     string  `json:"name"`
	StartNs  int64   `json:"start_ns"`
	DurNs    int64   `json:"duration_ns"`
	Attrs    []Attr  `json:"attrs,omitempty"`
	Children []*Span `json:"children,omitempty"`

	tr    *Trace
	ended bool
}

// Trace is the record of one frontend request through the gateway pipeline.
// A trace is mutated only by the session goroutine processing the request
// (plus the driver goroutine it calls into, which is the same one); once
// finished and published to a Ring it is immutable.
type Trace struct {
	ID        string    `json:"id"`
	Session   uint64    `json:"session"`
	User      string    `json:"user"`
	SQL       string    `json:"sql"`
	StartedAt time.Time `json:"started_at"`
	DurNs     int64     `json:"duration_ns"`
	// Outcome is "ok" or "error"; ErrCode/ErrClass carry the frontend
	// failure code and its classification when Outcome is "error".
	Outcome  string `json:"outcome"`
	ErrCode  int    `json:"error_code,omitempty"`
	ErrClass string `json:"error_class,omitempty"`
	ErrMsg   string `json:"error,omitempty"`
	// Cache is the translation-cache outcome of the request: "hit", "miss",
	// "bypass", "raw-hit" (request-tier byte-identical replay), or "" when
	// the statement never consulted the cache.
	Cache string `json:"cache,omitempty"`
	// Fingerprint is the statement-shape fingerprint id of the request — the
	// join key against the /statements workload registry. Empty when
	// fingerprinting is off.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Streamed marks a request whose result rows were delivered through the
	// streaming pipeline rather than materialized.
	Streamed bool `json:"streamed,omitempty"`
	// Translated is the rewritten SQL-B text sent to the backend, one entry
	// per backend request. Emulated statements (recursive queries, MERGE)
	// fan out into several entries.
	Translated []string `json:"translated,omitempty"`
	// BackendRequests is the emulation fan-out: how many backend requests
	// this one frontend request expanded into.
	BackendRequests int `json:"backend_requests"`
	// StageNs sums span durations by span name (parse, bind, transform,
	// serialize, cache, execute, convert, reconnect, replay, ...).
	StageNs Stages `json:"stage_ns"`
	// Root is the request span tree.
	Root *Span `json:"spans"`

	mu    sync.Mutex
	start time.Time
	stack []*Span
}

// New starts a trace. id is a gateway-unique trace ordinal, session the
// owning session identity.
func New(id, session uint64, user, sql string) *Trace {
	now := time.Now()
	t := &Trace{
		ID:        newID(id, session),
		Session:   session,
		User:      user,
		SQL:       sql,
		StartedAt: now,
		start:     now,
	}
	t.Root = &Span{Name: "request", tr: t}
	t.stack = []*Span{t.Root}
	return t
}

// newID renders "t-<session>-<id>".
func newID(id, session uint64) string {
	var b [42]byte
	p := append(b[:0], "t-"...)
	p = strconv.AppendUint(p, session, 10)
	p = append(p, '-')
	p = strconv.AppendUint(p, id, 10)
	return string(p)
}

// Start opens a child span of the innermost open span and returns it. End it
// with Span.End. Safe on a nil trace (returns nil).
func (t *Trace) Start(name string) *Span {
	sp, _ := t.StartTimed(name)
	return sp
}

// StartTimed is Start for a caller that times the stage itself: it also
// returns the instant the span opened at, read once the span is in the tree,
// so the caller's stopwatch shares the span's clock read and does not count
// the span's own set-up. On a nil trace it only reads the clock.
func (t *Trace) StartTimed(name string) (*Span, time.Time) {
	if t == nil {
		return nil, time.Now()
	}
	sp := &Span{Name: name, tr: t}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.stack[len(t.stack)-1]
	parent.Children = append(parent.Children, sp)
	t.stack = append(t.stack, sp)
	now := time.Now()
	sp.StartNs = now.Sub(t.start).Nanoseconds()
	return sp, now
}

// Event records an instantaneous child span (Duration 0) under the innermost
// open span, with key/value attribute pairs. Safe on a nil trace.
func (t *Trace) Event(name string, kv ...string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &Span{Name: name, StartNs: time.Since(t.start).Nanoseconds(), ended: true}
	for i := 0; i+1 < len(kv); i += 2 {
		sp.Attrs = append(sp.Attrs, Attr{Key: kv[i], Value: kv[i+1]})
	}
	parent := t.stack[len(t.stack)-1]
	parent.Children = append(parent.Children, sp)
}

// End closes the span, accumulating its duration into the trace's per-stage
// sums. Idempotent; safe on a nil span.
func (sp *Span) End() {
	if sp == nil || sp.tr == nil {
		return
	}
	sp.EndWithDuration(time.Duration(time.Since(sp.tr.start).Nanoseconds() - sp.StartNs))
}

// EndWithDuration closes the span like End but records the given duration
// instead of wall-clock elapsed time. For concurrent pipeline stages whose
// effective time is accumulated externally — e.g. the streaming convert
// stage, which overlaps the execute span's wall-clock — so per-stage sums
// stay additive instead of double-counting overlapped time.
func (sp *Span) EndWithDuration(d time.Duration) {
	if sp == nil || sp.tr == nil {
		return
	}
	t := sp.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp.ended {
		return
	}
	sp.ended = true
	sp.DurNs = d.Nanoseconds()
	t.StageNs.add(sp.Name, sp.DurNs)
	// Pop the span (and anything opened after it that was left open — ending
	// a parent implicitly ends abandoned children).
	for i := len(t.stack) - 1; i >= 1; i-- {
		if t.stack[i] == sp {
			t.stack = t.stack[:i]
			break
		}
	}
}

// Set attaches a key/value attribute. Safe on a nil span.
func (sp *Span) Set(key, value string) {
	if sp == nil || sp.tr == nil {
		return
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Value: value})
}

// AddTranslated appends one backend request's SQL-B text and bumps the
// fan-out counter. Safe on a nil trace.
func (t *Trace) AddTranslated(sql string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Translated = append(t.Translated, sql)
	t.BackendRequests++
}

// SetCache records the translation-cache outcome (last write wins — for a
// multi-statement request the final statement's outcome stands, with the
// full story in the per-statement cache spans).
func (t *Trace) SetCache(outcome string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Cache = outcome
}

// SetFingerprint stamps the statement-shape fingerprint id.
func (t *Trace) SetFingerprint(fp string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Fingerprint = fp
}

// SetStreamed marks the request as having streamed its result rows.
func (t *Trace) SetStreamed(streamed bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Streamed = streamed
}

// CountSpans returns how many spans (including events) in the tree carry the
// given name — e.g. the per-request "retry" / "reconnect" counts the
// resilient driver recorded. Safe on a nil trace.
func (t *Trace) CountSpans(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return countSpans(t.Root, name)
}

func countSpans(sp *Span, name string) int {
	if sp == nil {
		return 0
	}
	n := 0
	if sp.Name == name {
		n++
	}
	for _, c := range sp.Children {
		n += countSpans(c, name)
	}
	return n
}

// Finish closes the root span and stamps the outcome. After Finish the trace
// must not be mutated further.
func (t *Trace) Finish(outcome string, errCode int, errClass, errMsg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Outcome = outcome
	t.ErrCode = errCode
	t.ErrClass = errClass
	t.ErrMsg = errMsg
	t.mu.Unlock()
	// Close any spans left open by an error path, innermost first.
	for {
		t.mu.Lock()
		var open *Span
		if len(t.stack) > 1 {
			open = t.stack[len(t.stack)-1]
		}
		t.mu.Unlock()
		if open == nil {
			break
		}
		open.End()
	}
	t.mu.Lock()
	t.DurNs = time.Since(t.start).Nanoseconds()
	t.Root.DurNs = t.DurNs
	t.Root.ended = true
	t.mu.Unlock()
}

// Duration returns the finished trace's wall time.
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.DurNs)
}

// FindSpan returns the first span with the given name in depth-first order,
// or nil. Intended for tests and diagnostics on finished traces.
func (t *Trace) FindSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return findSpan(t.Root, name)
}

func findSpan(sp *Span, name string) *Span {
	if sp == nil {
		return nil
	}
	if sp.Name == name {
		return sp
	}
	for _, c := range sp.Children {
		if found := findSpan(c, name); found != nil {
			return found
		}
	}
	return nil
}

// Stages sums span durations by span name. It holds the first stageSlots
// names in place and the rare rest in a slice, and it marshals as the JSON
// object a map[string]int64 of the same sums marshals as.
type Stages struct {
	n    int
	sums [stageSlots]stageSum
	more []stageSum
}

// stageSlots covers every stage the gateway times (metrics.NumStages) plus
// the resilient driver's reconnect and replay and the emulation span.
const stageSlots = 10

type stageSum struct {
	name string
	ns   int64
}

func (s *Stages) add(name string, ns int64) {
	for i := range s.sums[:s.n] {
		if s.sums[i].name == name {
			s.sums[i].ns += ns
			return
		}
	}
	for i := range s.more {
		if s.more[i].name == name {
			s.more[i].ns += ns
			return
		}
	}
	if s.n < len(s.sums) {
		s.sums[s.n] = stageSum{name, ns}
		s.n++
		return
	}
	s.more = append(s.more, stageSum{name, ns})
}

// Get returns the summed duration of the spans named name, 0 when none
// ended.
func (s *Stages) Get(name string) int64 {
	for _, st := range s.sums[:s.n] {
		if st.name == name {
			return st.ns
		}
	}
	for _, st := range s.more {
		if st.name == name {
			return st.ns
		}
	}
	return 0
}

// Map returns the sums as a map, empty (not nil) when no span ended.
func (s *Stages) Map() map[string]int64 {
	m := make(map[string]int64, s.n+len(s.more))
	for _, st := range s.sums[:s.n] {
		m[st.name] = st.ns
	}
	for _, st := range s.more {
		m[st.name] = st.ns
	}
	return m
}

// MarshalJSON renders the sums as the map Map returns.
func (s Stages) MarshalJSON() ([]byte, error) { return json.Marshal(s.Map()) }

// UnmarshalJSON reads the map MarshalJSON writes, so a decoded trace keeps
// its stage sums.
func (s *Stages) UnmarshalJSON(b []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*s = Stages{}
	for name, ns := range m {
		s.add(name, ns)
	}
	return nil
}

// --- context propagation ----------------------------------------------------

type ctxKey struct{}

// NewContext returns ctx carrying the trace, for propagation into layers
// below the session (the backend driver's retry/reconnect machinery).
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// IsContextKey reports whether key is the one FromContext looks a trace up
// under: a context that carries a trace as a field of its own answers
// Value(key) with it, with no WithValue layer.
func IsContextKey(key any) bool {
	_, ok := key.(ctxKey)
	return ok
}

// FromContext extracts the trace (nil when absent).
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
