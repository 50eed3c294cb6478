// Package hyperq implements the core of the system: the Adaptive Data
// Virtualization gateway of the paper. It terminates the frontend wire
// protocol (WP-A), runs each request through the Algebrizer → Transformer →
// Serializer pipeline, executes the translated SQL-B on the backend through
// the ODBC Server abstraction, and converts results back into the binary
// format the unmodified application expects — emulating missing target
// features (recursive queries, macros, MERGE, catalog commands) with
// multi-request protocols and gateway-side state (§4, Figure 3).
package hyperq

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hyperq/internal/catalog"
	"hyperq/internal/dialect"
	"hyperq/internal/fingerprint"
	"hyperq/internal/metrics"
	"hyperq/internal/odbc"
	"hyperq/internal/odbc/pool"
	"hyperq/internal/querylog"
	"hyperq/internal/trace"
	"hyperq/internal/types"
	"hyperq/internal/wire/tdp"
	"hyperq/internal/wstats"
)

// Config configures a Gateway.
type Config struct {
	// Target is the cloud system profile the gateway translates for.
	Target *dialect.Profile
	// Driver creates backend sessions (one per frontend session).
	Driver odbc.Driver
	// Catalog is the gateway-side metadata store. Hyper-Q automates schema
	// discovery/transfer (§4); in this reproduction the catalog is either
	// populated through gateway DDL or imported from the backend at startup.
	Catalog *catalog.Catalog
	// DisableStreaming sends every result set to the collecting sink, so a
	// wire session's results are materialized before they are written — the
	// reference side of the streamed-vs-buffered differential tests.
	DisableStreaming bool
	// CacheEntries bounds the translation cache entry count. 0 selects 4096.
	CacheEntries int
	// DisableTranslationCache turns the translation cache off entirely
	// (every statement runs the full pipeline — the cold baseline).
	DisableTranslationCache bool
	// BackendTimeout bounds each request's backend execution; 0 leaves
	// requests unbounded. Pair it with an odbc.ResilientDriver so the
	// deadline also covers reconnect attempts.
	BackendTimeout time.Duration
	// Resilience, when non-nil, surfaces the fault-tolerance counters of
	// the configured backend driver(s) in MetricsSnapshot. Share the same
	// struct with the odbc.ResilientDriver / odbc.ReplicatedDriver.
	Resilience *odbc.ResilienceMetrics
	// DisableTracing turns per-request span traces off (histograms stay on).
	// The tracing-overhead benchmark's baseline; also useful when a trace
	// ring per gateway is unwanted.
	DisableTracing bool
	// QueryLog, when non-nil, receives one JSON line per request.
	QueryLog *querylog.Writer
	// Pool, when the gateway executes through a shared backend connection
	// pool, references it so pool state surfaces on the introspection
	// endpoints (/pool, pool gauges in /metrics). Set Driver to the same
	// pool; the gateway never manages the pool's lifecycle.
	Pool *pool.Pool
	// DisableStatStatements turns the per-fingerprint workload-statistics
	// registry off (/statements then returns 404 and per-request recording
	// is skipped entirely).
	DisableStatStatements bool
	// SLO, when positive, is the per-request latency objective: the registry
	// counts requests slower than it as SLO breaches, per shape and
	// gateway-wide, and flags violating fingerprints against a 0.99
	// objective.
	SLO time.Duration
}

// The result-memory bounds of §4.6.
const (
	// resultBudget is the per-session in-flight byte budget of a streamed
	// result: a session's fetch stage stops pulling from the backend while
	// more than this many bytes sit between fetch and frontend delivery.
	resultBudget = 64 << 20
	// resultMemoryCap is the gateway-wide hard cap on in-flight streamed
	// result bytes across all sessions. A request is shed with
	// CodeGatewaySaturated, rather than ballooning gateway memory, when its
	// next batch would push the gauge past the cap, or when that batch and
	// its predecessor in the same request — resident at once — together
	// exceed the cap.
	resultMemoryCap = 256 << 20
)

// Metrics holds the gateway's event counters. The three timing components of
// Figure 9 (translation, backend execution and result transformation) and
// the request count are not kept here: they are the sums and count of the
// stage and request histograms.
type Metrics struct {
	statements  int64
	cacheHits   int64
	cacheMisses int64
	cacheBypass int64
	cacheEvict  int64

	streamedResults   int64
	bufferedResults   int64
	streamedBytes     int64
	bufferedBytes     int64
	clientsEvicted    int64
	midstreamFailures int64
	resultShed        int64
}

// MetricsSnapshot is a point-in-time copy of the gateway metrics.
type MetricsSnapshot struct {
	Translate  time.Duration
	Execute    time.Duration
	Convert    time.Duration
	Requests   int64
	Statements int64
	// Translation-cache counters: hits served from a cached translation,
	// misses that filled the cache, bypasses for cache-ineligible statements
	// (macro scope, session objects, non-DML), and LRU evictions.
	CacheHits   int64
	CacheMisses int64
	CacheBypass int64
	CacheEvict  int64
	// Fault-tolerance counters (populated when Config.Resilience is set):
	// transparent retries, replacement backend sessions, session-state
	// replays, circuit-breaker open transitions, and replicas quarantined
	// out of the read rotation.
	Retries            int64
	Reconnects         int64
	Replays            int64
	BreakerOpen        int64
	ReplicaQuarantined int64
	// Result-path counters: result sets streamed straight to the wire, result
	// sets collected into FrontResults first, sessions evicted
	// for stalling past the client write deadline, mid-stream backend
	// failures surfaced to clients (never retried), and requests shed at the
	// gateway-wide result memory cap.
	StreamedResults int64
	BufferedResults int64
	// StreamedBytes/BufferedBytes count result payload bytes delivered
	// to each sink (TDF wire encoding).
	StreamedBytes     int64
	BufferedBytes     int64
	ClientsEvicted    int64
	MidstreamFailures int64
	ResultShed        int64
	// ResultInflightBytes is the gateway-wide in-flight streamed result
	// gauge at snapshot time; ResultPeakBytes its high-water mark.
	ResultInflightBytes int64
	ResultPeakBytes     int64
}

// Overhead returns the fraction of total time spent in the gateway
// (translation + conversion) — the Figure 9 measurement.
func (m MetricsSnapshot) Overhead() float64 {
	total := m.Translate + m.Execute + m.Convert
	if total == 0 {
		return 0
	}
	return float64(m.Translate+m.Convert) / float64(total)
}

// Gateway is one Hyper-Q instance. It implements tdp.Handler.
type Gateway struct {
	cfg     Config
	cat     *catalog.Catalog
	metrics Metrics
	// cache is the translation cache; nil when disabled.
	cache *translationCache
	// nextSessionID mints globally unique session identities for cache keys
	// (sessions with a populated session catalog stamp their overlay version
	// under this identity).
	nextSessionID uint64
	// nextTraceID mints trace ordinals.
	nextTraceID uint64
	// stages holds the per-stage latency histograms; ring the finished
	// traces. Both always exist (tracing only gates span allocation).
	// Session.publish is their only writer.
	stages *metrics.Stages
	ring   *trace.Ring
	// wstats is the per-fingerprint workload-statistics registry; nil when
	// disabled.
	wstats *wstats.Registry
	// live sessions, for the /sessions introspection endpoint.
	sessMu   sync.Mutex
	sessions map[uint64]*Session
	// resultInflight is the gateway-wide in-flight streamed result byte
	// gauge (the result-memory accountant); resultPeak its high-water mark.
	resultInflight int64
	resultPeak     int64
	// resultBudget and resultCap are the result-memory bounds, set once in
	// New (tests shrink them before the first request).
	resultBudget int64
	resultCap    int64
}

// New creates a gateway.
func New(cfg Config) (*Gateway, error) {
	if cfg.Target == nil {
		return nil, fmt.Errorf("hyperq: target profile required")
	}
	if cfg.Driver == nil {
		return nil, fmt.Errorf("hyperq: backend driver required")
	}
	if cfg.Catalog == nil {
		cfg.Catalog = catalog.New()
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 4096
	}
	g := &Gateway{
		cfg:          cfg,
		cat:          cfg.Catalog,
		stages:       metrics.NewStages(),
		ring:         trace.NewRing(),
		sessions:     make(map[uint64]*Session),
		resultBudget: resultBudget,
		resultCap:    resultMemoryCap,
	}
	if !cfg.DisableTranslationCache {
		g.cache = newTranslationCache(cfg.CacheEntries, cacheBytes)
	}
	if !cfg.DisableStatStatements {
		g.wstats = wstats.New(wstats.Config{SLO: cfg.SLO, Pinner: g.ring})
	}
	return g, nil
}

// Catalog exposes the gateway-side metadata store.
func (g *Gateway) Catalog() *catalog.Catalog { return g.cat }

// Target reports the configured target profile.
func (g *Gateway) Target() *dialect.Profile { return g.cfg.Target }

// MetricsSnapshot returns current cumulative metrics. The Figure 9
// components are read off the stage histograms: translation is the exact
// time summed over the five translation-side stages (parse through cache).
func (g *Gateway) MetricsSnapshot() MetricsSnapshot {
	var translate int64
	for st := metrics.StageParse; st <= metrics.StageCache; st++ {
		translate += g.stages.Stage(st).Snapshot().SumNs
	}
	snap := MetricsSnapshot{
		Translate:   time.Duration(translate),
		Execute:     time.Duration(g.stages.Stage(metrics.StageExecute).Snapshot().SumNs),
		Convert:     time.Duration(g.stages.Stage(metrics.StageConvert).Snapshot().SumNs),
		Requests:    g.stages.Request.Snapshot().Count,
		Statements:  atomic.LoadInt64(&g.metrics.statements),
		CacheHits:   atomic.LoadInt64(&g.metrics.cacheHits),
		CacheMisses: atomic.LoadInt64(&g.metrics.cacheMisses),
		CacheBypass: atomic.LoadInt64(&g.metrics.cacheBypass),
		CacheEvict:  atomic.LoadInt64(&g.metrics.cacheEvict),

		StreamedResults:     atomic.LoadInt64(&g.metrics.streamedResults),
		BufferedResults:     atomic.LoadInt64(&g.metrics.bufferedResults),
		StreamedBytes:       atomic.LoadInt64(&g.metrics.streamedBytes),
		BufferedBytes:       atomic.LoadInt64(&g.metrics.bufferedBytes),
		ClientsEvicted:      atomic.LoadInt64(&g.metrics.clientsEvicted),
		MidstreamFailures:   atomic.LoadInt64(&g.metrics.midstreamFailures),
		ResultShed:          atomic.LoadInt64(&g.metrics.resultShed),
		ResultInflightBytes: atomic.LoadInt64(&g.resultInflight),
		ResultPeakBytes:     atomic.LoadInt64(&g.resultPeak),
	}
	if r := g.cfg.Resilience; r != nil {
		snap.Retries = r.Retries()
		snap.Reconnects = r.Reconnects()
		snap.Replays = r.Replays()
		snap.BreakerOpen = r.BreakerOpen()
		snap.ReplicaQuarantined = r.ReplicaQuarantined()
	}
	return snap
}

// SetQueryLog attaches (or detaches, with nil) the query-log writer. A
// capture run provisions schema and shared objects first and attaches the
// capture log after, so setup statements stay out of the captured workload.
// Call only while no requests are in flight.
func (g *Gateway) SetQueryLog(w *querylog.Writer) { g.cfg.QueryLog = w }

// ResetMetrics zeroes the counters, the stage histograms, and the trace ring
// (between benchmark phases).
func (g *Gateway) ResetMetrics() {
	atomic.StoreInt64(&g.metrics.statements, 0)
	atomic.StoreInt64(&g.metrics.cacheHits, 0)
	atomic.StoreInt64(&g.metrics.cacheMisses, 0)
	atomic.StoreInt64(&g.metrics.cacheBypass, 0)
	atomic.StoreInt64(&g.metrics.cacheEvict, 0)
	atomic.StoreInt64(&g.metrics.streamedResults, 0)
	atomic.StoreInt64(&g.metrics.bufferedResults, 0)
	atomic.StoreInt64(&g.metrics.streamedBytes, 0)
	atomic.StoreInt64(&g.metrics.bufferedBytes, 0)
	atomic.StoreInt64(&g.metrics.clientsEvicted, 0)
	atomic.StoreInt64(&g.metrics.midstreamFailures, 0)
	atomic.StoreInt64(&g.metrics.resultShed, 0)
	// The in-flight gauge tracks live memory and is never reset; only the
	// high-water mark rewinds.
	atomic.StoreInt64(&g.resultPeak, atomic.LoadInt64(&g.resultInflight))
	g.cfg.Resilience.Reset()
	g.stages.Reset()
	// The registry unpins its exemplars before the ring resets, so both
	// orderings work; registry first keeps the pin accounting tidy.
	g.wstats.Reset()
	g.ring.Reset()
}

// Statements exposes the per-fingerprint workload-statistics registry (nil
// when disabled).
func (g *Gateway) Statements() *wstats.Registry { return g.wstats }

// --- result-memory accountant ----------------------------------------------

// acquireResultBytes reserves n bytes of gateway-wide in-flight result
// memory, returning false when the reservation would exceed the hard cap —
// the caller must shed the request. A reservation is always granted when the
// gauge is empty, so one batch larger than the entire cap degrades to
// sequential admission instead of failing unconditionally.
func (g *Gateway) acquireResultBytes(n int64) bool {
	for {
		cur := atomic.LoadInt64(&g.resultInflight)
		next := cur + n
		if next > g.resultCap && cur > 0 {
			return false
		}
		if atomic.CompareAndSwapInt64(&g.resultInflight, cur, next) {
			for {
				peak := atomic.LoadInt64(&g.resultPeak)
				if next <= peak || atomic.CompareAndSwapInt64(&g.resultPeak, peak, next) {
					return true
				}
			}
		}
	}
}

// releaseResultBytes returns a reservation to the accountant.
func (g *Gateway) releaseResultBytes(n int64) {
	if n > 0 {
		atomic.AddInt64(&g.resultInflight, -n)
	}
}

// ResultInflightBytes reports the gateway-wide in-flight streamed result
// bytes (the hyperq_result_inflight_bytes gauge).
func (g *Gateway) ResultInflightBytes() int64 { return atomic.LoadInt64(&g.resultInflight) }

// ResultPeakBytes reports the gauge's high-water mark since the last reset.
func (g *Gateway) ResultPeakBytes() int64 { return atomic.LoadInt64(&g.resultPeak) }

// PoolStats snapshots the backend connection pool, when one is configured.
func (g *Gateway) PoolStats() (pool.Stats, bool) {
	if g.cfg.Pool == nil {
		return pool.Stats{}, false
	}
	return g.cfg.Pool.Stats(), true
}

// Traces exposes the finished-trace ring.
func (g *Gateway) Traces() *trace.Ring { return g.ring }

// classifyCode maps frontend failure codes to the trace error taxonomy.
func classifyCode(code int) string {
	switch code {
	case tdp.CodeSyntaxError:
		return "syntax"
	case tdp.CodeSemanticError:
		return "semantic"
	case tdp.CodeBackendUnavailable:
		return "backend-unavailable"
	case tdp.CodeGatewaySaturated:
		return "pool-saturated"
	case tdp.CodeWriteStateUnknown:
		return "connection-lost"
	case tdp.CodeClientTooSlow:
		return "client-evicted"
	case tdp.CodeResultInterrupted:
		return "midstream"
	case tdp.CodeObjectNotFound, tdp.CodeObjectExists, tdp.CodeMacroNotFound, tdp.CodeBadMacroArgument:
		return "execution"
	}
	return "other"
}

// --- live session registry (the /sessions introspection table) -------------

func (g *Gateway) registerSession(s *Session) {
	g.sessMu.Lock()
	defer g.sessMu.Unlock()
	g.sessions[s.id] = s
}

func (g *Gateway) dropSession(id uint64) {
	g.sessMu.Lock()
	defer g.sessMu.Unlock()
	delete(g.sessions, id)
}

// SessionInfo is one live session's row in the /sessions table.
type SessionInfo struct {
	ID         uint64    `json:"id"`
	User       string    `json:"user"`
	LogonAt    time.Time `json:"logon_at"`
	State      string    `json:"state"` // "active" while a request is in flight, else "idle"
	Requests   int64     `json:"requests"`
	Statements int64     `json:"statements"`
	CacheHits  int64     `json:"cache_hits"`
	LastSQL    string    `json:"last_sql,omitempty"`
	LastError  string    `json:"last_error,omitempty"`
	LastActive time.Time `json:"last_active,omitempty"`
	// Fingerprint is the statement-shape id of the current (state "active")
	// or most recent request; Streaming marks a session currently delivering
	// a streamed result mid-flight.
	Fingerprint string `json:"fingerprint,omitempty"`
	Streaming   bool   `json:"streaming,omitempty"`
}

// Sessions snapshots the live session table, ordered by session id.
func (g *Gateway) Sessions() []SessionInfo {
	g.sessMu.Lock()
	live := make([]*Session, 0, len(g.sessions))
	for _, s := range g.sessions {
		live = append(live, s)
	}
	g.sessMu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	out := make([]SessionInfo, 0, len(live))
	for _, s := range live {
		info := SessionInfo{
			ID:         s.id,
			User:       s.user,
			LogonAt:    s.logonAt,
			State:      "idle",
			Requests:   atomic.LoadInt64(&s.obsRequests),
			Statements: atomic.LoadInt64(&s.obsStatements),
			CacheHits:  atomic.LoadInt64(&s.obsCacheHits),
		}
		if atomic.LoadInt32(&s.inFlight) > 0 {
			info.State = "active"
		}
		s.lastMu.Lock()
		info.LastSQL, info.LastError = s.lastSQL, s.lastErr
		s.lastMu.Unlock()
		if ns := atomic.LoadInt64(&s.lastActive); ns != 0 {
			info.LastActive = time.Unix(0, ns)
		}
		if fp := atomic.LoadUint64(&s.curFP); fp != 0 {
			info.Fingerprint = fingerprint.ShortID(fp)
		}
		info.Streaming = atomic.LoadInt32(&s.midStream) != 0
		out = append(out, info)
	}
	return out
}

// LogonError is the clean logon-failure record surfaced to the client: the
// tdp server writes its message verbatim into the LogonFail parcel, so a
// bteq-style application shows the operator a single actionable line
// instead of a wrapped Go error chain.
type LogonError struct {
	Code    int
	Message string
}

func (e *LogonError) Error() string { return fmt.Sprintf("[%d] %s", e.Code, e.Message) }

// Logon implements tdp.Handler: it opens the paired backend session. A
// backend that cannot be reached yields a LogonError (CodeLogonDenied, the
// "logons disabled" class) rather than a raw connection error.
func (g *Gateway) Logon(user, password string) (tdp.SessionHandler, error) {
	if user == "" {
		return nil, &LogonError{Code: tdp.CodeLogonInvalid, Message: "logon failed: user required"}
	}
	s, err := newSession(g, user)
	if err != nil {
		return nil, &LogonError{Code: tdp.CodeLogonDenied, Message: "backend system unavailable, logon denied; retry later"}
	}
	return s, nil
}

// NewLocalSession opens a gateway session without the frontend protocol —
// used by in-process examples and the benchmark harness.
func (g *Gateway) NewLocalSession(user string) (*Session, error) {
	return newSession(g, user)
}

// FrontResult is one statement's response in frontend terms. A session with
// a frontend writes a collected result set's records to it as they are; Rows
// holds the rows of a gateway-made result set (HELP, EXPLAIN), and those of
// every result set a session without a frontend returns from Run.
type FrontResult struct {
	Cols     []tdp.ColumnDef
	Rows     [][]types.Datum
	Activity int64
	Command  string
	// recs is a collected result set's records, until they are emitted.
	recs []byte
}

// RequestError carries the frontend failure code. A backend failure keeps
// its cause, so callers can still match the driver's sentinel errors.
type RequestError struct {
	Code    int
	Message string
	cause   error
}

func (e *RequestError) Error() string { return fmt.Sprintf("[%d] %s", e.Code, e.Message) }

// Unwrap returns the backend failure a mapped error was made from, or nil.
func (e *RequestError) Unwrap() error { return e.cause }

func failf(code int, format string, args ...any) *RequestError {
	return &RequestError{Code: code, Message: fmt.Sprintf(format, args...)}
}
