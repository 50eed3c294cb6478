package layers

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"hyperq/internal/binder"
	"hyperq/internal/catalog"
	"hyperq/internal/dialect"
	"hyperq/internal/fingerprint"
	"hyperq/internal/hyperq"
	"hyperq/internal/parser"
	"hyperq/internal/serializer"
	"hyperq/internal/transform"
	"hyperq/internal/types"
	"hyperq/internal/wire/tdp"
	"hyperq/perf/canned"
)

// user is the logon of every in-process session of the pass.
const user = "bench"

// Stream is a workload's request stream as the in-process passes replay it.
type Stream struct {
	Catalog   func() (*catalog.Catalog, error) // a fresh gateway catalog
	Table     *canned.Table                    // SQL-B replies
	Setup     []string                         // gateway-side provisioning
	Texts     []string
	Requests  []int32 // indexes into Texts, one client's sequence
	ColdCache bool
}

// session builds a gateway over a bare in-process canned driver and opens a
// provisioned, cache-warm session on it.
func (st *Stream) session(driver *canned.Driver, mod func(*hyperq.Config)) (*hyperq.Gateway, *hyperq.Session, error) {
	cat, err := st.Catalog()
	if err != nil {
		return nil, nil, err
	}
	cfg := hyperq.Config{
		Target:                  dialect.CloudA(),
		Driver:                  driver,
		Catalog:                 cat,
		DisableTranslationCache: st.ColdCache,
	}
	if mod != nil {
		mod(&cfg)
	}
	g, err := hyperq.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	s, err := g.NewLocalSession(user)
	if err != nil {
		return nil, nil, err
	}
	for _, sql := range st.Setup {
		if _, err := s.Run(sql); err != nil {
			s.Close()
			return nil, nil, fmt.Errorf("set-up %q: %w", sql, err)
		}
	}
	return g, s, nil
}

// cursor walks one session through the stream. Passes on one session
// continue where the previous one stopped, never from the start: the stream
// may carry state from request to request (a write cycle's volatile table),
// so it is only ever replayed in order.
type cursor struct {
	st  *Stream
	pos int
}

func (c *cursor) next() int32 {
	id := c.st.Requests[c.pos%len(c.st.Requests)]
	c.pos++
	return id
}

// warm sends the next n requests untimed, so caches and arenas are in the
// state the timed requests will find them in.
func (c *cursor) warm(s *hyperq.Session, n int) error {
	for i := 0; i < n; i++ {
		if _, err := s.Run(c.st.Texts[c.next()]); err != nil {
			return err
		}
	}
	return nil
}

// runResult is one replay of n requests through Session.Run.
type runResult struct {
	wall     time.Duration
	p50      time.Duration
	requests int64
	rows     int64
	allocs   uint64
	bytes    uint64
	snap     hyperq.MetricsSnapshot
}

func (st *Stream) replay(g *hyperq.Gateway, s *hyperq.Session, n int) (runResult, error) {
	cur := &cursor{st: st}
	if err := cur.warm(s, n); err != nil {
		return runResult{}, err
	}
	g.ResetMetrics()
	durs := make([]time.Duration, 0, n)
	var r runResult
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		res, err := s.Run(st.Texts[cur.next()])
		durs = append(durs, time.Since(t))
		if err != nil {
			return r, err
		}
		for _, fr := range res {
			r.rows += int64(len(fr.Rows))
		}
	}
	r.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	r.p50 = durs[len(durs)/2]
	r.requests = int64(n)
	r.allocs, r.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.snap = g.MetricsSnapshot()
	return r, nil
}

// GatewayResult carries HyperqRun's metrics and the figures other parts of
// the report derive from it.
type GatewayResult struct {
	Metrics []Metric
	// RunP50 is the median in-process Session.Run time of one request.
	RunP50 time.Duration
	// Requests and Rows are what the default-configuration replay sent and
	// got back.
	Requests, Rows int64
}

// HyperqRun replays n requests of the stream through NewLocalSession().Run
// over the canned executor, once with the default configuration and once
// with tracing and statement statistics off. The cache shares are exact
// counts from MetricsSnapshot over the n requests; translate, execute and
// convert are the program's own Figure 9 components.
func HyperqRun(st *Stream, n int) (*GatewayResult, error) {
	g, s, err := st.session(&canned.Driver{Table: st.Table}, nil)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	on, err := st.replay(g, s, n)
	if err != nil {
		return nil, err
	}
	g2, s2, err := st.session(&canned.Driver{Table: st.Table}, func(c *hyperq.Config) {
		c.DisableTracing = true
		c.DisableStatStatements = true
	})
	if err != nil {
		return nil, err
	}
	defer s2.Close()
	off, err := st.replay(g2, s2, n)
	if err != nil {
		return nil, err
	}
	req := float64(on.requests)
	wall := float64(on.wall.Nanoseconds())
	m := on.snap
	attributed := float64((m.Translate + m.Execute + m.Convert).Nanoseconds())
	convertPerRow := 0.0
	if on.rows > 0 {
		convertPerRow = float64(m.Convert.Nanoseconds()) / float64(on.rows)
	}
	return &GatewayResult{
		RunP50:   on.p50,
		Requests: on.requests,
		Rows:     on.rows,
		Metrics: []Metric{
			{"hyperq.run.ns_per_req", wall / req, "ns/req", on.requests},
			{"hyperq.run.allocs_per_req", float64(on.allocs) / req, "allocs/req", on.requests},
			{"hyperq.run.bytes_per_req", float64(on.bytes) / req, "B/req", on.requests},
			{"hyperq.cache.hit_share", float64(m.CacheHits) / req, "share", on.requests},
			{"hyperq.cache.bypass_share", float64(m.CacheBypass) / req, "share", on.requests},
			{"hyperq.translate.ns_per_req", float64(m.Translate.Nanoseconds()) / req, "ns/req", on.requests},
			{"hyperq.execute.ns_per_req", float64(m.Execute.Nanoseconds()) / req, "ns/req", on.requests},
			{"hyperq.convert.ns_per_row", convertPerRow, "ns/row", on.rows},
			{"hyperq.unattributed_share", (wall - attributed) / wall, "share", on.requests},
			{"hyperq.obs_tax_share", 1 - float64(off.wall)/float64(on.wall), "share", on.requests},
		},
	}, nil
}

// discard is a tdp.ResponseWriter that counts what it is given.
type discard struct{ rows int64 }

func (d *discard) BeginResultSet([]tdp.ColumnDef) error { return nil }
func (d *discard) Row([]types.Datum) error              { d.rows++; return nil }
func (d *discard) EndStatement(int64, string) error     { return nil }
func (d *discard) Failure(code int, msg string) error {
	return fmt.Errorf("request failed [%d]: %s", code, msg)
}

// HyperqStream pulls the wide result n times through Session.Request into a
// discarding frontend writer: the streaming pipeline (fetch, convert, write)
// with neither socket attached.
func HyperqStream(wide *Stream, n int) ([]Metric, error) {
	g, s, err := wide.session(&canned.Driver{Table: wide.Table}, nil)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	sql := wide.Texts[wide.Requests[0]]
	var w discard
	if err := s.Request(sql, &w); err != nil {
		return nil, err
	}
	g.ResetMetrics()
	w.rows = 0
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := s.Request(sql, &w); err != nil {
			return nil, err
		}
	}
	wall := time.Since(start)
	return []Metric{
		{"hyperq.stream.rows_per_s", float64(w.rows) / wall.Seconds(), "rows/s", w.rows},
		{"hyperq.stream.peak_inflight_bytes", float64(g.ResultPeakBytes()), "B", int64(n)},
	}, nil
}

// Span names of the traced pass. A layer is a package; hyperq.run's self
// time is everything Session.Run does outside the canned executor.
const (
	SpanRequest     = "request"
	SpanRun         = "hyperq.run"
	SpanCanned      = "canned.exec"
	SpanDecomposed  = "decomposed"
	SpanParser      = "parser"
	SpanFingerprint = "fingerprint"
	SpanBinder      = "binder"
	SpanTransform   = "transform"
	SpanSerializer  = "serializer"
)

// TracedResult is the traced pass's outcome.
type TracedResult struct {
	Recorder *Recorder
	// Overhead is 1 - (time per request with the recorder off) / (with it on).
	Overhead float64
	Requests int64
}

// traceBlocks is how many off/on block pairs the traced pass alternates.
const traceBlocks = 8

// Traced replays about 2n requests on one goroutine, half with the recorder
// off and half with it on, with a span around each public call: Session.Run (and, inside it,
// the canned executor), then the same request's cold translation decomposed
// into parser, fingerprint, binder, transform and serializer calls. The
// decomposition runs whatever tier the cache served the request from, so its
// self times say what the request would cost cold, layer by layer.
func Traced(st *Stream, n int, keepSpans int) (*TracedResult, error) {
	rec := NewRecorder(keepSpans)
	driver := &canned.Driver{Table: st.Table}
	driver.OnExec = func(string) func() { return rec.Begin(SpanCanned) }
	g, s, err := st.session(driver, nil)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	target := dialect.CloudA()
	prepared := make(map[int32]*stmtInputs)
	for id, sql := range st.Texts {
		if in := translatable([]string{sql}, g.Catalog(), target); len(in) == 1 {
			prepared[int32(id)] = &in[0]
		}
	}
	var sc parser.Scratch
	one := func(id int32) error {
		rec.NextRequest()
		endReq := rec.Begin(SpanRequest)
		defer endReq()
		end := rec.Begin(SpanRun)
		_, err := s.Run(st.Texts[id])
		end()
		if err != nil {
			return err
		}
		in := prepared[id]
		if in == nil {
			return nil
		}
		endDec := rec.Begin(SpanDecomposed)
		defer endDec()
		end = rec.Begin(SpanParser)
		sc.Reset()
		_, err = parser.ParseWith(in.sql, parser.Teradata, nil, &sc)
		end()
		if err != nil {
			return err
		}
		end = rec.Begin(SpanFingerprint)
		fingerprint.Statement(in.ast)
		end()
		end = rec.Begin(SpanBinder)
		b := binder.New(g.Catalog(), parser.Teradata, nil)
		bound, err := b.Bind(in.ast)
		end()
		if err != nil {
			return err
		}
		end = rec.Begin(SpanTransform)
		mid, err := transform.BindingStage().Statement(bound, transform.NewContext(nil, nil, b.MaxColumnID()))
		end()
		if err != nil {
			return err
		}
		end = rec.Begin(SpanSerializer)
		_, err = serializer.New(target, nil).Serialize(mid)
		end()
		return err
	}
	// The recorder is switched off and on in alternating blocks of the same
	// stream rather than in two long passes, so that drift in the machine's
	// speed falls on both sides of the overhead comparison alike.
	cur := &cursor{st: st}
	if err := cur.warm(s, n); err != nil {
		return nil, err
	}
	var off, on time.Duration
	block := (n + traceBlocks - 1) / traceBlocks
	for done := 0; done < n; done += block {
		for _, traced := range []bool{false, true} {
			rec.On = traced
			start := time.Now()
			for i := 0; i < block; i++ {
				if err := one(cur.next()); err != nil {
					return nil, err
				}
			}
			if traced {
				on += time.Since(start)
			} else {
				off += time.Since(start)
			}
		}
	}
	return &TracedResult{Recorder: rec, Overhead: 1 - float64(off)/float64(on), Requests: rec.Requests()}, nil
}
