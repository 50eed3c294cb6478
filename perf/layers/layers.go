package layers

import (
	"context"
	"fmt"
	"strings"
	"time"

	"hyperq/internal/dialect"
	"hyperq/internal/hyperq"
	"hyperq/internal/odbc/pool"
	"hyperq/perf/canned"
)

// Input is everything one workload's per-layer pass works on.
type Input struct {
	// Stream is the workload's own request stream; the translation and
	// gateway timers replay it.
	Stream *Stream
	// Wide is the result_stream fixture. The row codecs and the streaming
	// path are timed on it whatever the workload, so those metrics mean the
	// same thing in every workload's report.
	Wide      *Wide
	WideFront *hyperq.FrontResult
	// Budget is the time each timer measures for; Requests and WideRequests
	// are the fixed request counts of the replay passes, so that the counts
	// derived from them repeat exactly.
	Budget       time.Duration
	Requests     int
	WideRequests int
	// HasCycles marks a stream with transactional write cycles.
	HasCycles bool
	TraceFile string
	KeepSpans int
	// E2E carries the over-the-wire pass's figures the harness-honesty
	// metrics are computed against.
	E2E E2E
}

// E2E is what the per-layer pass needs from the over-the-wire pass.
type E2E struct {
	LatencyP50Ms  float64
	CannedReplyUs float64
	LoadgenShare  float64
}

// Result is one workload's per-layer pass.
type Result struct {
	Metrics []Metric
	// Values derived from the traced pass, for the workload checks.
	TranslateSelfShare float64 // parser+binder+transform+serializer self time over hyperq.run time
	ResultPathShare    float64 // convert + cwp decode + tdp encode per request over e2e p50
	PinsPerCycle       float64
}

func value(ms []Metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// Run executes every layer timer and the traced pass.
func Run(ctx context.Context, in Input) (*Result, error) {
	target := dialect.CloudA()
	var ms []Metric
	add := func(m []Metric, err error) error {
		ms = append(ms, m...)
		return err
	}

	// Framing and the two protocols.
	ms = append(ms, WireFrame(in.Budget)...)
	if err := add(TDP(in.Budget, in.Wide, in.WideFront)); err != nil {
		return nil, err
	}

	// The translation layers, over the workload's own statements. The
	// catalog comes from a provisioned gateway so views and macros resolve.
	g, s, err := in.Stream.session(&canned.Driver{Table: in.Stream.Table}, nil)
	if err != nil {
		return nil, err
	}
	stmts := translatable(in.Stream.Texts, g.Catalog(), target)
	s.Close()
	if len(stmts) == 0 {
		return nil, fmt.Errorf("layers: none of the %d request texts goes through the translate pipeline", len(in.Stream.Texts))
	}
	ms = append(ms, ParserParse(in.Budget, stmts)...)
	ms = append(ms, Fingerprint(in.Budget, stmts)...)
	ms = append(ms, BinderBind(in.Budget, stmts, g.Catalog())...)
	ms = append(ms, TransformStatement(in.Budget, stmts, target)...)
	ms = append(ms, SerializerSerialize(in.Budget, stmts, target)...)

	// The gateway as a whole, in-process.
	gw, err := HyperqRun(in.Stream, in.Requests)
	if err != nil {
		return nil, err
	}
	ms = append(ms, gw.Metrics...)
	if err := add(HyperqStream(in.Wide.Stream, in.WideRequests)); err != nil {
		return nil, err
	}

	// The backend stack under the gateway.
	if err := add(OdbcResilient(ctx, in.Budget)); err != nil {
		return nil, err
	}
	if err := add(PoolLease(ctx, in.Budget)); err != nil {
		return nil, err
	}
	if err := add(CwpCodec(ctx, in.Budget, in.Wide)); err != nil {
		return nil, err
	}
	if err := add(TdfCodec(in.Budget, in.Wide)); err != nil {
		return nil, err
	}

	// The traced pass.
	tr, err := Traced(in.Stream, in.Requests, in.KeepSpans)
	if err != nil {
		return nil, err
	}
	if in.TraceFile != "" {
		if err := tr.Recorder.WriteFile(in.TraceFile); err != nil {
			return nil, err
		}
	}
	res := &Result{}
	runSelf, _ := tr.Recorder.Self(SpanRun)
	cannedSelf, _ := tr.Recorder.Self(SpanCanned)
	var translateSelf time.Duration
	for _, name := range []string{SpanParser, SpanBinder, SpanTransform, SpanSerializer} {
		d, _ := tr.Recorder.Self(name)
		translateSelf += d
	}
	if runTotal := runSelf + cannedSelf; runTotal > 0 {
		res.TranslateSelfShare = float64(translateSelf) / float64(runTotal)
	}

	// Harness honesty. The sum adds up what one request passes through on
	// its blocking path: the gateway in-process, the pool lease and the
	// resilient wrapper around the backend call, the backend protocol round
	// trip plus decoding the request's rows, and the frontend protocol round
	// trip plus encoding them.
	rowsPerRequest := float64(gw.Rows) / float64(gw.Requests)
	perRow := func(rate string) float64 { // ns one request's rows spend in a per-row layer
		if r := value(ms, rate); r > 0 {
			return rowsPerRequest / r * 1e9
		}
		return 0
	}
	sumNs := float64(gw.RunP50.Nanoseconds()) +
		value(ms, "pool.lease.ns_per_req") + value(ms, "odbc.resilient.tax_ns_per_req") +
		value(ms, "cwp.roundtrip.us_per_req")*1e3 + perRow("cwp.decode.rows_per_s") +
		value(ms, "tdp.roundtrip.us_per_req")*1e3 + perRow("tdp.encode.rows_per_s")
	sumShare := 0.0
	if in.E2E.LatencyP50Ms > 0 {
		sumShare = sumNs / (in.E2E.LatencyP50Ms * 1e6)
		resultNs := value(ms, "hyperq.convert.ns_per_row")*rowsPerRequest +
			perRow("cwp.decode.rows_per_s") + perRow("tdp.encode.rows_per_s")
		res.ResultPathShare = resultNs / (in.E2E.LatencyP50Ms * 1e6)
	}
	ms = append(ms,
		Metric{"canned.reply.us_per_req", in.E2E.CannedReplyUs, "us/req", 0},
		Metric{"loadgen.cpu_share", in.E2E.LoadgenShare, "share", 0},
		Metric{"trace.overhead_share", tr.Overhead, "share", tr.Requests},
		Metric{"layers.sum_over_e2e_p50", sumShare, "share", tr.Requests},
	)

	if in.HasCycles {
		if res.PinsPerCycle, err = pinsPerCycle(in.Stream, in.Requests); err != nil {
			return nil, err
		}
	}
	res.Metrics = ms
	return res, nil
}

// pinsPerCycle replays n requests through a gateway whose driver is a real
// pool over the canned driver and reports pool pins per write cycle seen.
func pinsPerCycle(st *Stream, n int) (float64, error) {
	p, err := pool.New(pool.Config{Driver: &canned.Driver{Table: st.Table}, Size: 2, MaintainEvery: -1})
	if err != nil {
		return 0, err
	}
	defer p.Close()
	cat, err := st.Catalog()
	if err != nil {
		return 0, err
	}
	g, err := hyperq.New(hyperq.Config{Target: dialect.CloudA(), Driver: p, Pool: p, Catalog: cat})
	if err != nil {
		return 0, err
	}
	s, err := g.NewLocalSession(user)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	for _, sql := range st.Setup {
		if _, err := s.Run(sql); err != nil {
			return 0, err
		}
	}
	cur := &cursor{st: st}
	cycles := 0
	for i := 0; i < n; i++ {
		sql := st.Texts[cur.next()]
		if strings.HasPrefix(sql, "CREATE VOLATILE TABLE") {
			cycles++
		}
		if _, err := s.Run(sql); err != nil {
			return 0, err
		}
	}
	if cycles == 0 {
		return 0, nil
	}
	return float64(p.Stats().Pins) / float64(cycles), nil
}
