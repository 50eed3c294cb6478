package hyperq

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyperq/internal/catalog"
	"hyperq/internal/dialect"
	"hyperq/internal/feature"
	"hyperq/internal/fingerprint"
	"hyperq/internal/metrics"
	"hyperq/internal/odbc"
	"hyperq/internal/odbc/pool"
	"hyperq/internal/parser"
	"hyperq/internal/serializer"
	"hyperq/internal/sqlast"
	"hyperq/internal/tdf"
	"hyperq/internal/trace"
	"hyperq/internal/transform"
	"hyperq/internal/types"
	"hyperq/internal/wire/tdp"
	"hyperq/internal/wstats"
	"hyperq/internal/xtra"

	"hyperq/internal/binder"
)

// Session is one frontend session: it pairs the client connection with a
// backend session and the per-session gateway state (volatile tables,
// session settings).
type Session struct {
	g  *Gateway
	be odbc.StreamExecutor

	user     string
	settings map[string]string
	// sessionCat overlays the gateway catalog with session-scoped objects
	// (volatile tables, global-temporary instances, emulation work tables).
	sessionCat *catalog.Catalog
	nextTemp   int

	// id is the gateway-unique session identity; sessions with a populated
	// session catalog stamp translation-cache keys under it so overlay
	// objects never leak entries across sessions.
	id      uint64
	logonAt time.Time
	// settingsSig is the canonical rendering of the session settings,
	// embedded in cache keys so settings-dependent translations cannot be
	// shared across differently configured sessions.
	settingsSig string

	// ctx carries the current request's deadline and trace into backend
	// execution (sessions process one request at a time); between requests
	// it has neither. timer is the one deadline timer its Done arms.
	ctx   *requestContext
	timer requestTimer
	// req is the current request's record (see record.go), written only by
	// the session goroutine and published once when the request ends.
	req request
	// fw wraps the current request's frontend writer (it points at front);
	// nil outside a request or for local (non-wire) sessions. When set, Run
	// emits each unit's parcels as it completes and streamable statements
	// bypass result materialization entirely. feed is the fetch stage of the
	// statement streaming to it.
	fw    *frontWriter
	front frontWriter
	feed  resultFeed
	// Observability counters, read by the /sessions endpoint from other
	// goroutines (hence atomics, and lastMu for the two strings). The three
	// request totals, lastActive and lastErr are written by publish; the rest
	// is live state.
	obsRequests   int64
	obsStatements int64
	obsCacheHits  int64
	inFlight      int32
	lastActive    int64 // unix nanos of the last request completion
	lastMu        sync.Mutex
	lastSQL       string
	lastErr       string
	// curFP is the current (or most recent) request's statement-shape hash,
	// and midStream flags a streamed result delivery in flight — both read by
	// /sessions from other goroutines.
	curFP     uint64
	midStream int32
	// logSeq counts the requests this session has written to the query log,
	// and logPrev is the last one's start: the capture numbering of its next
	// entry, written by publish.
	logSeq  uint64
	logPrev time.Time
	// replayLog records the backend DDL that established session-scoped
	// backend state (volatile tables, global-temporary instances, emulation
	// work tables), in execution order. A reconnecting backend driver
	// replays it onto the replacement session so the frontend session
	// survives a backend bounce; the SET overlay itself lives gateway-side
	// and survives by construction. With a pooled backend, a non-empty log
	// also pins the session to its backend connection (see pool.go).
	replayLog []replayEntry
	// txnOpen tracks an open explicit transaction (BT without ET): like the
	// replay log, it pins a pooled backend connection to the session.
	txnOpen bool
	// recs holds the current unit's collected records until they are
	// emitted; encoded is the pooled raw batch a batch that is not raw is
	// encoded into (deliverBatch).
	recs    []byte
	encoded tdf.Batch
	// psc is the per-session parser arena (token slices, identifier
	// interner, AST node slabs), reset at each request boundary. Safe
	// because sessions process one request at a time and nothing retains a
	// request's AST past its Run. Nested parses during a request (macro
	// bodies, view definitions) deliberately bypass it.
	psc parser.Scratch
}

// env is what running a statement depends on besides the statement and the
// session. It is passed down the exec and emulate calls and never kept: a
// nested call gets its own copy.
type env struct {
	// rec collects the request's rewrite features; nil records nothing.
	rec *feature.Recorder
	// params holds the bound :name parameter values inside EXEC.
	params map[string]types.Datum
	// composite is set inside a multi-statement emulation protocol (macro,
	// MERGE, recursive query, SET-table insert): nothing streams there, so
	// sibling statements' parcels keep their order.
	composite bool
}

type replayEntry struct {
	// name is the upper-cased session-object name the entry belongs to, so
	// dropping the object also drops its replay statement.
	name string
	sql  string
}

// newSession opens the session's backend under the session's own context:
// outside a request it has no deadline and no trace.
func newSession(g *Gateway, user string) (*Session, error) {
	s := &Session{
		g:          g,
		user:       user,
		settings:   map[string]string{"CHARSET": "ASCII", "DATEFORM": "integerdate"},
		sessionCat: catalog.New(),
	}
	s.ctx = &requestContext{timer: &s.timer}
	be, err := odbc.ConnectContext(s.ctx, g.cfg.Driver)
	if err != nil {
		return nil, err
	}
	s.be = be
	s.id = atomic.AddUint64(&g.nextSessionID, 1)
	s.logonAt = time.Now()
	s.settingsSig = settingsSignature(s.settings)
	if ra, ok := s.be.(odbc.ReconnectAware); ok {
		ra.OnReconnect(s.replaySessionState)
	}
	g.registerSession(s)
	return s, nil
}

// replaySessionState rebuilds backend session state on a replacement
// connection after a transparent reconnect: the recorded session-scoped DDL
// is re-executed in order, so translated statements referencing volatile or
// temporary objects keep working. Contents of session temporaries are not
// replayed — the replacement objects are empty, the same guarantee the
// original warehouse gives after a session reset. The session SET overlay
// needs no backend action: it is gateway-side state and survives the bounce
// untouched.
func (s *Session) replaySessionState(ex odbc.Executor) error {
	for _, e := range s.replayLog {
		// Replay runs inside the request that triggered the reconnect, so it
		// shares that request's deadline and trace.
		if _, err := ex.ExecContext(s.ctx, e.sql); err != nil {
			return fmt.Errorf("replay %s: %w", e.name, err)
		}
	}
	return nil
}

// recordSessionDDL remembers backend DDL that must be replayed onto a
// replacement backend session.
func (s *Session) recordSessionDDL(name, sql string) {
	if sql == "" {
		return
	}
	s.replayLog = append(s.replayLog, replayEntry{name: strings.ToUpper(name), sql: sql})
}

// forgetSessionDDL drops the replay statements of a session object.
func (s *Session) forgetSessionDDL(name string) {
	name = strings.ToUpper(name)
	kept := s.replayLog[:0]
	for _, e := range s.replayLog {
		if e.name != name {
			kept = append(kept, e)
		}
	}
	s.replayLog = kept
}

// Bounds on what SET SESSION lets a client grow: a session takes any option
// name, every SET re-renders the signature, and the signature is part of
// every translation-cache key the session builds. A SET past either bound
// fails with CodeSemanticError and changes nothing; re-setting an option the
// session has is always allowed while the signature fits.
const (
	maxSessionSettings  = 64
	maxSettingsSigBytes = 4 << 10
)

// setOption applies one SET SESSION.
func (s *Session) setOption(name, value string) error {
	name = strings.ToUpper(name)
	old, had := s.settings[name]
	if !had && len(s.settings) >= maxSessionSettings {
		return failf(tdp.CodeSemanticError, "SET SESSION %s: a session holds at most %d settings", name, maxSessionSettings)
	}
	s.settings[name] = value
	sig := settingsSignature(s.settings)
	if len(sig) > maxSettingsSigBytes {
		if had {
			s.settings[name] = old
		} else {
			delete(s.settings, name)
		}
		return failf(tdp.CodeSemanticError, "SET SESSION %s: session settings would exceed %d bytes", name, maxSettingsSigBytes)
	}
	s.settingsSig = sig
	return nil
}

// settingsSignature renders the session settings deterministically.
func settingsSignature(settings map[string]string) string {
	keys := make([]string, 0, len(settings))
	for k := range settings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(settings[k])
		b.WriteByte(';')
	}
	return b.String()
}

// Table implements binder.Resolver with the session overlay.
func (s *Session) Table(name string) (*catalog.Table, bool) {
	if t, ok := s.sessionCat.Table(name); ok {
		return t, true
	}
	return s.g.cat.Table(name)
}

// View implements binder.Resolver.
func (s *Session) View(name string) (*catalog.View, bool) {
	return s.g.cat.View(name)
}

var _ binder.Resolver = (*Session)(nil)

// Close implements tdp.SessionHandler.
func (s *Session) Close() {
	s.g.dropSession(s.id)
	s.timer.stop()
	_ = s.be.Close()
}

// Request implements tdp.SessionHandler: the full per-request pipeline.
// Response parcels are emitted as statements complete (and, on the
// streaming path, as rows arrive), so the paragraph below on failures is a
// wire-visible contract: a request that fails partway may deliver earlier
// statements' parcels before the failure parcel; the client discards them
// (tdp.Client already does).
func (s *Session) Request(sql string, w tdp.ResponseWriter) error {
	s.front = frontWriter{w: w, buf: s.front.buf}
	s.fw = &s.front
	_, err := s.Run(sql)
	s.fw = nil
	if err != nil {
		var fwe *frontWriteError
		if errors.As(err, &fwe) {
			if fwe.Timeout() {
				// Slow-client eviction: the client stalled past the write
				// deadline while results were in flight. Best-effort failure
				// parcel (the socket buffer may still have room for a few
				// bytes), then tear the connection down — the returned error
				// makes the tdp server drop the connection, which releases
				// the session and its pool lease.
				atomic.AddInt64(&s.g.metrics.clientsEvicted, 1)
				_ = w.Failure(tdp.CodeClientTooSlow, "client too slow: result delivery stalled past the write deadline; session evicted")
			}
			return fwe.err
		}
		re, ok := err.(*RequestError)
		if !ok {
			re = failf(tdp.CodeSyntaxError, "%v", err)
		}
		return w.Failure(re.Code, re.Message)
	}
	return nil
}

// Run processes a request string and returns per-statement results. It owns
// the request's lifetime: the record, the trace and the backend context are
// set up here, and the record is published here once the request is over.
func (s *Session) Run(sql string) (out []*FrontResult, err error) {
	s.req = request{sql: sql}
	if !s.g.cfg.DisableTracing {
		s.req.tr = trace.New(atomic.AddUint64(&s.g.nextTraceID, 1), s.id, s.user, sql)
		s.req.start = s.req.tr.StartedAt
	} else {
		s.req.start = time.Now()
	}
	atomic.AddInt32(&s.inFlight, 1)
	s.lastMu.Lock()
	s.lastSQL = sql
	s.lastMu.Unlock()
	var deadline time.Time
	if t := s.g.cfg.BackendTimeout; t > 0 {
		deadline = s.req.start.Add(t)
	}
	s.ctx.begin(deadline, s.req.tr)
	rec := &s.req.feats
	defer func() {
		s.maybeUnpinBackend()
		if !s.ctx.end() {
			s.ctx = &requestContext{timer: &s.timer}
		}
		atomic.AddInt32(&s.inFlight, -1)
		s.publish(err)
		s.req.tr = nil
	}()
	if cached, done, cerr := s.runCachedRaw(sql, rec); done {
		if cerr == nil {
			cerr = s.emit(cached)
		}
		return cached, cerr
	}
	// A request-tier hit took its hash from the entry; anything else hashes
	// its text.
	if s.g.wstats != nil || s.req.tr != nil {
		s.setHash(fingerprint.TemplateHash(sql), "")
	}
	t := s.req.begin(metrics.StageParse)
	// The previous request's AST is dead by now; rewind the arena and parse
	// into it.
	s.psc.Reset()
	stmts, perr := parser.ParseWith(sql, parser.Teradata, rec, &s.psc)
	s.req.end(t)
	if perr != nil {
		return nil, failf(tdp.CodeSyntaxError, "%v", perr) // 3706: syntax error
	}
	if len(stmts) > 1 {
		rec.Record(feature.MultiStatement)
	}
	// §4.3 performance transformation: contiguous single-row inserts merge
	// into one backend statement; responses are synthesized per original
	// statement below.
	units := batchDML(stmts)
	var last Plan
	for _, unit := range units {
		results, p, err := s.execStatement(unit.stmt, env{rec: rec})
		if err != nil {
			return nil, err
		}
		last = p
		unitResults := results
		if unit.perStmtRows != nil {
			unitResults = make([]*FrontResult, 0, len(unit.perStmtRows))
			for _, n := range unit.perStmtRows {
				unitResults = append(unitResults, &FrontResult{Activity: int64(n), Command: "INSERT"})
			}
		}
		out = append(out, unitResults...)
		// With a frontend attached, each unit's parcels go out as the unit
		// completes — a streamed later unit must not overtake an earlier
		// unit's buffered response.
		if err := s.emit(unitResults); err != nil {
			return nil, err
		}
		s.req.statements++
	}
	// A request that ran as exactly one fingerprint-tier plan (no batching,
	// no DDL, no session-dependent translation) is promoted into the request
	// tier, with the request's features: they include parse-stage
	// recordings, so a hit replays what the full pipeline would record.
	if last.cacheable && len(units) == 1 && units[0].perStmtRows == nil {
		last.feats = rec.Set()
		ce := &cacheEntry{key: s.cacheKey("R", sql), plan: last, hash: s.req.hash}
		if s.req.tr != nil {
			ce.fpID = fingerprint.ShortID(s.req.hash)
			s.req.fpID = ce.fpID
		}
		s.cachePut(ce)
	}
	return out, nil
}

// maxRetainedRecs bounds the record buffer a session keeps between units: a
// large collected result's is left to the garbage collector.
const maxRetainedRecs = 1 << 20

// emit hands one unit's collected results on, each result set's records
// written to the frontend or, for a session without one, decoded into Rows:
// the one place a collected result becomes Datums. Then the unit's records
// are dead, and the session's buffer is reused.
func (s *Session) emit(results []*FrontResult) error {
	var err error
	if s.fw != nil {
		err = s.fw.writeResults(results)
	}
	for _, res := range results {
		if s.fw == nil && res.recs != nil && err == nil {
			res.Rows, err = tdp.DecodeRecords(res.Cols, res.recs)
		}
		res.recs = nil
	}
	s.recs = s.recs[:0]
	if cap(s.recs) > maxRetainedRecs {
		s.recs = nil
	}
	return err
}

// runCachedRaw is the request-tier cache fast path: a byte-identical repeat
// of a previously translated single-statement request skips parsing and
// fingerprinting entirely and replays the stored translation. done reports
// whether the request was served (successfully or not) from the cache.
func (s *Session) runCachedRaw(sql string, rec *feature.Recorder) (out []*FrontResult, done bool, err error) {
	cache := s.g.cache
	if cache == nil {
		return nil, false, nil
	}
	t := s.req.begin(metrics.StageCache)
	ce := cache.get(s.cacheKey("R", sql))
	if ce == nil {
		s.req.end(t)
		t.sp.Set("outcome", "raw-miss")
		return nil, false, nil
	}
	s.req.endCache(t, wstats.TierExactHit)
	s.setHash(ce.hash, ce.fpID)
	rec.Merge(ce.plan.feats)
	out, err = s.execPlan(ce.plan, env{})
	if err != nil {
		return nil, true, err
	}
	s.req.statements++
	return out, true, nil
}

// setHash records the request's statement-shape hash and, when known, its
// rendered fingerprint id.
func (s *Session) setHash(hash uint64, fpID string) {
	s.req.hash, s.req.fpID = hash, fpID
	atomic.StoreUint64(&s.curFP, hash)
}

// cachePut stores a translation-cache entry, counting what it evicts.
func (s *Session) cachePut(e *cacheEntry) {
	e.size = e.entrySize()
	if evicted := s.g.cache.put(e); evicted > 0 {
		atomic.AddInt64(&s.g.metrics.cacheEvict, int64(evicted))
	}
}

// cacheKey builds a translation-cache key. Besides the statement body it
// holds everything a cached translation depends on but the gateway's target
// dialect: the tier, the global catalog version, the session-overlay stamp,
// and the session settings. Sessions whose overlay catalog has ever changed
// get session-private keys (overlay objects can shadow global ones through
// views, invisible to the statement-level table check).
func (s *Session) cacheKey(tier, body string) cacheKey {
	k := cacheKey{
		tier:     tier,
		catalog:  s.g.cat.Version(),
		settings: s.settingsSig,
		body:     body,
	}
	if v := s.sessionCat.Version(); v != 0 {
		k.session, k.overlay = s.id, v
	}
	return k
}

// execStatement dispatches one parsed statement: features the target lacks
// go through emulation; everything else runs the translate pipeline. A
// SELECT, INSERT, UPDATE or DELETE that ran as exactly one plan also returns
// that plan (the request tier may store it); anything else a zero Plan.
func (s *Session) execStatement(stmt sqlast.Statement, e env) (out []*FrontResult, _ Plan, err error) {
	switch t := stmt.(type) {
	case *sqlast.ExplainStmt:
		out, err = s.execExplain(t, e)
	case *sqlast.HelpStmt:
		out, err = s.execHelp(t)
	case *sqlast.SetSessionStmt:
		if err := s.setOption(t.Option, t.Value); err != nil {
			return nil, Plan{}, err
		}
		out = []*FrontResult{{Command: "SET SESSION"}}
	case *sqlast.CreateMacroStmt:
		out, err = s.execCreateMacro(t)
	case *sqlast.DropMacroStmt:
		if err := s.g.cat.DropMacro(t.Name); err != nil {
			return nil, Plan{}, failf(tdp.CodeMacroNotFound, "%v", err) // macro does not exist
		}
		out = []*FrontResult{{Command: "DROP MACRO"}}
	case *sqlast.ExecStmt:
		out, err = s.execMacro(t, e)
	case *sqlast.MergeStmt:
		out, err = s.execMerge(t, e)
	case *sqlast.CreateViewStmt:
		out, err = s.execCreateView(t, e.rec)
	case *sqlast.DropViewStmt:
		if err := s.g.cat.DropView(t.Name); err != nil {
			return nil, Plan{}, failf(tdp.CodeObjectNotFound, "%v", err)
		}
		out = []*FrontResult{{Command: "DROP VIEW"}}
	case *sqlast.CollectStatsStmt:
		// Translation class: eliminated entirely on self-tuning targets.
		out = []*FrontResult{{Command: "COLLECT STATISTICS"}}
	case *sqlast.TxnStmt:
		out, err = s.execTxn(t, e)
	case *sqlast.CreateTableStmt:
		out, err = s.execCreateTable(t, e)
	case *sqlast.DropTableStmt:
		out, err = s.execDropTable(t, e)
	case *sqlast.InsertStmt:
		if tbl, ok := s.Table(t.Table); ok && tbl.Set {
			e.rec.Record(feature.SetTable)
			return s.execSetTableInsert(t, tbl, e)
		}
		return s.translateAndRun(stmt, e)
	case *sqlast.SelectStmt:
		if t.Query.With != nil && t.Query.With.Recursive && !s.g.cfg.Target.Supports(dialect.CapRecursive) {
			return s.emulateRecursive(t, e)
		}
		return s.translateAndRun(stmt, e)
	default:
		return s.translateAndRun(stmt, e)
	}
	return out, Plan{}, err
}

// translateAndRun performs the paper's core pipeline for one statement:
// translate (bind → binding-stage transform → serialize, consulting the
// translation cache) → execute → convert. It returns the plan it ran.
func (s *Session) translateAndRun(stmt sqlast.Statement, e env) ([]*FrontResult, Plan, error) {
	p, err := s.translate(stmt, e)
	if err != nil {
		return nil, Plan{}, err
	}
	out, err := s.execPlan(p, e)
	return out, p, err
}

// cacheableKind reports whether a statement kind is eligible for the
// translation cache at all. DDL and emulated constructs always take the
// full pipeline: they are rare, side-effecting, and mutate the very
// metadata the cache keys on.
func cacheableKind(stmt sqlast.Statement) bool {
	switch stmt.(type) {
	case *sqlast.SelectStmt, *sqlast.InsertStmt, *sqlast.UpdateStmt, *sqlast.DeleteStmt:
		return true
	}
	return false
}

// refsSessionObject reports whether any referenced table name resolves in
// the session catalog (volatile tables, global-temporary instances,
// emulation work tables): such translations are session-state-dependent.
func (s *Session) refsSessionObject(tables []string) bool {
	for _, name := range tables {
		if _, ok := s.sessionCat.Table(name); ok {
			return true
		}
	}
	return false
}

// translate produces one statement's plan, consulting the translation
// cache. A plan served or stored by the fingerprint tier is marked
// cacheable.
func (s *Session) translate(stmt sqlast.Statement, e env) (Plan, error) {
	cache := s.g.cache
	if cache == nil || !cacheableKind(stmt) {
		return s.bindTransformSerialize(stmt, e, false)
	}
	if e.params != nil {
		// Macro scope: statement text contains :params bound per EXEC.
		s.req.cacheOutcome(wstats.TierBypass)
		return s.bindTransformSerialize(stmt, e, false)
	}
	t := s.req.begin(metrics.StageCache)
	fp := fingerprint.Statement(stmt)
	if !fp.Cacheable || s.refsSessionObject(fp.Tables) {
		s.req.endCache(t, wstats.TierBypass)
		return s.bindTransformSerialize(stmt, e, false)
	}
	key := s.cacheKey("F", fp.Key)
	if ce := cache.get(key); ce != nil && (!ce.exact || fingerprint.LitSigEqual(ce.litsig, fp.Literals)) {
		e.rec.Merge(ce.plan.feats)
		p := ce.plan.instantiate(fp.Literals)
		s.req.endCache(t, wstats.TierFingerprintHit)
		return p, nil
	}
	s.req.endCache(t, wstats.TierMiss)
	// Translate with an inner recorder so the cache entry can replay the
	// statement's features on later hits.
	inner := &feature.Recorder{}
	p, err := s.bindTransformSerialize(stmt, env{rec: inner}, true)
	e.rec.Merge(inner.Set())
	if err != nil || p.sql == "" {
		// A statement eliminated by translation is not worth caching.
		return p, err
	}
	// Filling the cache is cache time too.
	t = s.req.begin(metrics.StageCache)
	tpl, complete := fingerprint.ParseTemplate(p.sql, len(fp.Literals))
	if !tpl.Valid() {
		s.req.end(t)
		// Marker parsing failed (a non-lifted literal contained a NUL
		// byte): re-serialize without lifting and skip caching.
		return s.bindTransformSerialize(stmt, env{}, false)
	}
	ce := &cacheEntry{key: key, plan: Plan{tpl: tpl, cols: p.cols, cmd: p.cmd, feats: inner.Set(), cacheable: true, conv: new(convertMemo)}}
	if !complete {
		// A lifted literal's value was consumed by translation (folding,
		// value-dependent binding): the text is only valid for these exact
		// values.
		ce.exact = true
		ce.litsig = fingerprint.LitSig(fp.Literals)
	}
	s.cachePut(ce)
	p = ce.plan.instantiate(fp.Literals)
	s.req.end(t)
	t.sp.Set("outcome", "fill")
	return p, nil
}

// instantiate returns the plan a fingerprint-tier plan gives a statement
// with these literals.
func (p Plan) instantiate(literals []types.Datum) Plan {
	p.sql, p.tpl = p.tpl.Instantiate(literals), fingerprint.Template{}
	return p
}

// bindTransformSerialize runs bind → binding-stage transform → serialize.
// With lift set, serialized output carries literal placeholders
// (fingerprint markers) instead of the lifted literal values.
func (s *Session) bindTransformSerialize(stmt sqlast.Statement, e env, lift bool) (Plan, error) {
	t := s.req.begin(metrics.StageBind)
	b := binder.New(s, parser.Teradata, e.rec)
	b.SetParams(e.params)
	bound, err := b.Bind(stmt)
	s.req.end(t)
	if err != nil {
		return Plan{}, failf(tdp.CodeSemanticError, "%v", err) // semantic error
	}
	t = s.req.begin(metrics.StageTransform)
	ctx := transform.NewContext(nil, e.rec, b.MaxColumnID())
	mid, err := transform.BindingStage().Statement(bound, ctx)
	s.req.end(t)
	if t.sp != nil {
		for _, id := range ctx.Fired().IDs() {
			t.sp.Set("feature", feature.Lookup(id).Name)
		}
	}
	if err != nil {
		return Plan{}, failf(tdp.CodeSemanticError, "%v", err)
	}
	t = s.req.begin(metrics.StageSerialize)
	ser := serializer.New(s.g.cfg.Target, e.rec)
	if lift {
		ser.LiftLiterals()
	}
	sql, err := ser.Serialize(mid)
	s.req.end(t)
	if err != nil {
		return Plan{}, failf(tdp.CodeSemanticError, "%v", err)
	}
	p := Plan{sql: sql, cmd: commandName(stmt), bound: mid}
	if q, ok := mid.(*xtra.Query); ok {
		p.cols = q.Root.Columns()
	}
	return p, nil
}

// execPlan executes a plan on the backend and delivers its results in the
// frontend representation; a statement translation eliminated answers OK
// without one. There is one result path (deliver) and two sinks: a
// result-set statement with a frontend attached goes straight to the wire
// through the fetch stage (bounded memory, backpressure to the backend) and
// returns no FrontResult; everything else is collected.
func (s *Session) execPlan(p Plan, e env) ([]*FrontResult, error) {
	if p.sql == "" {
		return []*FrontResult{{Command: "OK"}}, nil
	}
	s.req.tr.AddTranslated(p.sql)
	t := s.req.begin(metrics.StageExecute)
	var out []*FrontResult
	var convert time.Duration
	var err error
	streamed := s.streamsToWire(p.cols, e)
	if streamed {
		convert, err = s.streamToWire(&p)
	} else {
		out, convert, err = s.collect(&p)
	}
	s.req.endSplit(t, metrics.StageConvert, convert)
	t.sp.Set("sql", p.sql)
	if streamed {
		t.sp.Set("streamed", "true")
	}
	return out, err
}

// collect runs one backend request to completion and materializes its
// results. It executes through ExecContext, not ExecStream: nothing has
// reached a client, so the resilient layer's whole-request retry matrix keeps
// applying, whereas a stream is never retried after its first event.
func (s *Session) collect(p *Plan) ([]*FrontResult, time.Duration, error) {
	ctx := s.ctx
	results, err := s.be.ExecContext(ctx, p.sql)
	if err != nil {
		return nil, 0, mapBackendError(err)
	}
	c := collector{recs: &s.recs}
	sets, convert, err := s.deliver(ctx, odbc.BufferStream(results), p, &c)
	if err != nil {
		var re *RequestError
		if !errors.As(err, &re) {
			err = mapBackendError(err)
		}
		return nil, convert, err
	}
	s.req.bufferedResults += sets
	for _, r := range results {
		for _, b := range r.Batches {
			s.req.bufferedBytes += int64(b.EncodedSize())
		}
	}
	return c.out, convert, nil
}

// mapBackendError converts backend/driver failures into the frontend codes
// an unmodified client application expects: CodeBackendUnavailable for
// fail-fast circuit rejections ("backend temporarily unavailable, resubmit
// later"), CodeWriteStateUnknown for requests lost to a connection failure
// ("request rolled back, resubmit" — including non-idempotent writes the
// gateway refused to retry and replica divergence), CodeObjectNotFound for
// everything else (the generic request failure the gateway already used).
func mapBackendError(err error) *RequestError {
	var re *RequestError
	switch {
	case errors.Is(err, pool.ErrSaturated), errors.Is(err, pool.ErrAcquireTimeout):
		// CodeGatewaySaturated: the gateway could not obtain a backend
		// connection in time — resubmit later.
		re = failf(tdp.CodeGatewaySaturated, "%v", err)
	case errors.Is(err, odbc.ErrBreakerOpen):
		re = failf(tdp.CodeBackendUnavailable, "backend temporarily unavailable: %v", err)
	case errors.Is(err, odbc.ErrMaybeApplied), errors.Is(err, odbc.ErrReplicaDivergent):
		re = failf(tdp.CodeWriteStateUnknown, "%v", err)
	case odbc.Transient(err):
		re = failf(tdp.CodeWriteStateUnknown, "backend connection failure: %v", err)
	default:
		re = failf(tdp.CodeObjectNotFound, "%v", err)
	}
	re.cause = err
	return re
}

// commandName is a statement's frontend activity name; "" answers with the
// backend's command tag.
func commandName(stmt sqlast.Statement) string {
	switch stmt.(type) {
	case *sqlast.SelectStmt:
		return "SELECT"
	case *sqlast.InsertStmt:
		return "INSERT"
	case *sqlast.UpdateStmt:
		return "UPDATE"
	case *sqlast.DeleteStmt:
		return "DELETE"
	case *sqlast.CreateTableStmt:
		return "CREATE TABLE"
	case *sqlast.DropTableStmt:
		return "DROP TABLE"
	}
	return ""
}

func (s *Session) execCreateMacro(t *sqlast.CreateMacroStmt) ([]*FrontResult, error) {
	m := &catalog.Macro{Name: t.Name, Body: t.Body}
	for _, p := range t.Params {
		pt, err := p.Type.Resolve()
		if err != nil {
			return nil, failf(tdp.CodeSemanticError, "macro parameter %s: %v", p.Name, err)
		}
		m.Params = append(m.Params, catalog.MacroParam{Name: p.Name, Type: pt})
	}
	// Validate the body parses in the source dialect.
	if _, err := parser.Parse(t.Body, parser.Teradata, nil); err != nil {
		return nil, failf(tdp.CodeSyntaxError, "macro body: %v", err)
	}
	if err := s.g.cat.CreateMacro(m, t.Replace); err != nil {
		return nil, failf(tdp.CodeObjectExists, "%v", err)
	}
	return []*FrontResult{{Command: "CREATE MACRO"}}, nil
}

// execMacro emulates EXEC: the macro body is parsed, parameters are bound,
// and each inner statement runs through the normal pipeline — "macro code
// execution in the mid-tier" (Table 2).
func (s *Session) execMacro(t *sqlast.ExecStmt, e env) ([]*FrontResult, error) {
	m, ok := s.g.cat.Macro(t.Macro)
	if !ok {
		return nil, failf(tdp.CodeMacroNotFound, "macro %s does not exist", t.Macro)
	}
	if len(t.Args) != len(m.Params) {
		return nil, failf(tdp.CodeBadMacroArgument, "macro %s takes %d parameters, got %d", m.Name, len(m.Params), len(t.Args))
	}
	params := make(map[string]types.Datum, len(m.Params))
	for i, arg := range t.Args {
		d, err := constValue(arg)
		if err != nil {
			return nil, failf(tdp.CodeBadMacroArgument, "macro argument %d: %v", i+1, err)
		}
		cast, err := types.Cast(d, m.Params[i].Type)
		if err != nil {
			return nil, failf(tdp.CodeBadMacroArgument, "macro argument %d: %v", i+1, err)
		}
		params[strings.ToUpper(m.Params[i].Name)] = cast
	}
	stmts, err := parser.Parse(m.Body, parser.Teradata, e.rec)
	if err != nil {
		return nil, failf(tdp.CodeSyntaxError, "macro body: %v", err)
	}
	// The inner statements bind the macro's parameters and answer as one
	// composite response; streaming an inner result would reorder parcels.
	inner := env{rec: e.rec, params: params, composite: true}
	var out []*FrontResult
	for _, stmt := range stmts {
		results, _, err := s.execStatement(stmt, inner)
		if err != nil {
			return nil, err
		}
		out = append(out, results...)
	}
	return out, nil
}

// constValue evaluates a literal macro argument.
func constValue(e sqlast.Expr) (types.Datum, error) {
	switch x := e.(type) {
	case *sqlast.Const:
		return x.Val, nil
	case *sqlast.UnaryExpr:
		if x.Op == sqlast.UnaryNeg {
			inner, err := constValue(x.X)
			if err != nil {
				return types.Datum{}, err
			}
			return types.Neg(inner)
		}
	}
	return types.Datum{}, fmt.Errorf("macro arguments must be literals")
}

func (s *Session) execCreateView(t *sqlast.CreateViewStmt, rec *feature.Recorder) ([]*FrontResult, error) {
	b := binder.New(s, parser.Teradata, rec)
	bound, err := b.Bind(t)
	if err != nil {
		return nil, failf(tdp.CodeSemanticError, "%v", err)
	}
	cv := bound.(*xtra.CreateView)
	if cv.Replace {
		_ = s.g.cat.DropView(cv.Def.Name)
	}
	if err := s.g.cat.CreateView(cv.Def); err != nil {
		return nil, failf(tdp.CodeObjectExists, "%v", err)
	}
	return []*FrontResult{{Command: "CREATE VIEW"}}, nil
}

func (s *Session) execCreateTable(t *sqlast.CreateTableStmt, e env) ([]*FrontResult, error) {
	// Global temporary tables on targets without the capability are
	// emulated with per-session temporary tables: the definition lives in
	// the gateway session catalog, the contents in a backend TEMP table.
	if t.GlobalTemporary && !s.g.cfg.Target.Supports(dialect.CapGlobalTempTables) {
		e.rec.Record(feature.GlobalTempTable)
		lowered := *t
		lowered.GlobalTemporary = false
		lowered.Volatile = true
		t = &lowered
	}
	// Session-scoped tables are backend-session state: pin a pooled backend
	// connection before the DDL runs so the table and every later statement
	// share one connection.
	if t.Volatile || t.GlobalTemporary {
		if err := s.pinBackend(); err != nil {
			return nil, err
		}
	}
	results, p, err := s.translateAndRun(t, e)
	if err != nil {
		return nil, err
	}
	// Mirror the definition in the gateway catalog so later binds resolve;
	// session-scoped kinds live in the session overlay.
	def := p.bound.(*xtra.CreateTable).Def
	target := s.g.cat
	if def.Kind != catalog.KindPersistent {
		target = s.sessionCat
		// Session-scoped backend objects vanish with the backend session;
		// record their DDL so a reconnecting driver can rebuild them.
		s.recordSessionDDL(def.Name, p.sql)
	}
	if err := target.CreateTable(def); err != nil && !t.IfNotExists {
		return nil, failf(tdp.CodeObjectExists, "%v", err)
	}
	return results, nil
}

func (s *Session) execDropTable(t *sqlast.DropTableStmt, e env) ([]*FrontResult, error) {
	results, _, err := s.translateAndRun(t, e)
	if err != nil {
		return nil, err
	}
	if _, ok := s.sessionCat.Table(t.Name); ok {
		_ = s.sessionCat.DropTable(t.Name)
		s.forgetSessionDDL(t.Name)
	} else if err := s.g.cat.DropTable(t.Name); err != nil && !t.IfExists {
		return nil, failf(tdp.CodeObjectNotFound, "%v", err)
	}
	return results, nil
}

func (s *Session) execHelp(t *sqlast.HelpStmt) ([]*FrontResult, error) {
	strCol := func(name string) tdp.ColumnDef {
		return tdp.ColumnDef{Name: name, Type: types.VarChar(128)}
	}
	switch t.What {
	case "SESSION":
		res := &FrontResult{
			Cols:    []tdp.ColumnDef{strCol("Setting"), strCol("Value")},
			Command: "HELP",
		}
		add := func(k, v string) {
			res.Rows = append(res.Rows, []types.Datum{types.NewString(k), types.NewString(v)})
		}
		add("User Name", s.user)
		add("Account Name", s.user)
		add("Logon Date", s.logonAt.Format("06/01/02"))
		add("Default Database", "hyperq")
		add("Transaction Semantics", "Teradata")
		add("Current DateForm", s.settings["DATEFORM"])
		add("Session Character Set", s.settings["CHARSET"])
		add("Virtualized Target", s.g.cfg.Target.Name)
		res.Activity = int64(len(res.Rows))
		return []*FrontResult{res}, nil
	case "TABLE":
		tbl, ok := s.Table(t.Name)
		if !ok {
			return nil, failf(tdp.CodeObjectNotFound, "table %s does not exist", t.Name)
		}
		res := &FrontResult{
			Cols:    []tdp.ColumnDef{strCol("Column Name"), strCol("Type"), strCol("Nullable")},
			Command: "HELP",
		}
		for _, c := range tbl.Columns {
			nullable := "Y"
			if c.NotNull {
				nullable = "N"
			}
			res.Rows = append(res.Rows, []types.Datum{
				types.NewString(c.Name), types.NewString(c.Type.String()), types.NewString(nullable),
			})
		}
		res.Activity = int64(len(res.Rows))
		return []*FrontResult{res}, nil
	}
	return nil, failf(tdp.CodeSyntaxError, "unsupported HELP %s", t.What)
}

// execExplain answers EXPLAIN <request> from the gateway: it runs the full
// translation pipeline but returns the generated SQL-B text, the XTRA plan
// and the rewrite features instead of executing — the diagnostics a
// replatforming engineer uses to inspect what the virtualization layer does.
func (s *Session) execExplain(t *sqlast.ExplainStmt, e env) ([]*FrontResult, error) {
	inner := &feature.Recorder{}
	p, err := s.bindTransformSerialize(t.Stmt, env{rec: inner, params: e.params}, false)
	if err != nil {
		return nil, err
	}
	res := &FrontResult{
		Cols:    []tdp.ColumnDef{{Name: "Explanation", Type: types.VarChar(4096)}},
		Command: "EXPLAIN",
	}
	addLine := func(line string) {
		res.Rows = append(res.Rows, []types.Datum{types.NewString(line)})
	}
	addLine("Target system: " + s.g.cfg.Target.Name)
	if p.sql == "" {
		addLine("Request is eliminated by translation; no backend statement is issued.")
	} else {
		addLine("Translated request:")
		addLine("  " + p.sql)
	}
	if q, ok := p.bound.(*xtra.Query); ok {
		addLine("XTRA plan:")
		for _, line := range strings.Split(strings.TrimRight(xtra.Format(q.Root), "\n"), "\n") {
			addLine("  " + line)
		}
	}
	if fs := inner.Set(); !fs.Empty() {
		addLine("Rewrites applied:")
		for _, id := range fs.IDs() {
			info := feature.Lookup(id)
			addLine(fmt.Sprintf("  [%s] %s (%s)", info.Class, info.Name, info.Component))
		}
	}
	res.Activity = int64(len(res.Rows))
	return []*FrontResult{res}, nil
}
