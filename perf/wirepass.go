package perf

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hyperq/perf/canned"
	"hyperq/perf/load"
)

// Timing is how long one workload runs. It is fixed per invocation and the
// same for every workload.
type Timing struct {
	Warmup time.Duration
	Slice  time.Duration
	Slices int
}

// sampleEvery is the period of the full decode-and-compare check;
// maxFailures bounds the failure descriptions a report keeps per source.
const (
	sampleEvery = 64
	maxFailures = 8
)

// phase values of a wire pass, beyond the timed slice indexes 0..Slices-1.
const (
	phaseWarmup = -1
	phaseStop   = -2
)

// sliceStats is what one client observed during one timed slice.
type sliceStats struct {
	lat, ttfr load.Latencies
	completed int64
	bytes     int64
}

// clientTotals is what one client did over the whole pass, warm-up included.
type clientTotals struct {
	attempted, failed int64
	failures          []Failure
}

// Failure describes one failed request, for the report.
type Failure struct {
	SQL    string `json:"sql"`
	Reason string `json:"reason"`
}

// WireResult holds the over-the-wire pass's measurements for one workload.
type WireResult struct {
	SetupS  []float64 // one value per set-up repetition
	Slices  []SliceResult
	Metrics map[string]float64 // end-to-end metrics, median over slices
	// TailQuantile is the percentile latency_p99_ms actually reports (see
	// README: the highest with at least ten samples beyond it).
	TailQuantile float64
	Samples      int
	Attempted    int64
	Failed       int64
	Failures     []Failure
	// Harness-honesty figures, reported with the per-layer metrics.
	CannedReplyUs float64
	LoadgenShare  float64
	ProcAvailable bool
	// Workload and Ref are the measured set-up's workload and reference, for
	// the per-layer pass to replay without recording them again.
	Workload *Workload
	Ref      *Reference
}

// SliceResult is one timed slice's values.
type SliceResult struct {
	Seconds       float64 `json:"seconds"`
	Requests      int64   `json:"requests"`
	ThroughputRps float64 `json:"throughput_rps"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	TtfrP50Ms     float64 `json:"ttfr_p50_ms"`
	ResultMBps    float64 `json:"result_mb_per_s"`
	GwCPUUsPerReq float64 `json:"gw_cpu_us_per_req"`
	// GwCPUUtil is gateway CPU seconds per wall second (2.0 = both
	// processors busy): a throughput claim has to show this was the limit.
	GwCPUUtil float64 `json:"gw_cpu_util"`
}

// stack is one complete set-up: reference, canned server, running gateway
// and logged-on clients.
type stack struct {
	ref     *Reference
	server  *canned.Server
	gw      gateway
	clients []*load.Client
}

func (s *stack) close() {
	for _, c := range s.clients {
		_ = c.Close()
	}
	if s.gw != nil {
		s.gw.Stop()
	}
	if s.server != nil {
		s.server.Close()
	}
}

// Env is where and how a pass runs its gateway.
type Env struct {
	// GatewayBin is the built cmd/hyperq; empty runs the gateway in-process
	// (-quick).
	GatewayBin string
	OutDir     string
	Clients    int
	// WideRows sizes result_stream's table.
	WideRows int
}

// setUp performs everything setup_s covers: generate the workload, record
// the canned table, start backend and gateway, log the clients on, provision
// the gateway-side objects, and get one correct reply.
func setUp(env Env, name string, seed int64) (*Workload, *stack, error) {
	w, err := NewWorkload(name, seed, env.Clients, env.WideRows)
	if err != nil {
		return nil, nil, err
	}
	st := &stack{}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	if st.ref, err = Record(w); err != nil {
		return nil, nil, err
	}
	if st.server, err = canned.Serve(st.ref.Table); err != nil {
		return nil, nil, err
	}
	if env.GatewayBin != "" {
		st.gw, err = startProcess(env.GatewayBin, env.OutDir, st.server.Addr(), w)
	} else {
		st.gw, err = startInProcess(st.server.Addr(), w)
	}
	if err != nil {
		return nil, nil, err
	}
	for c := 0; c < env.Clients; c++ {
		cl, err := load.Dial(st.gw.Addr(), BenchUser)
		if err != nil {
			return nil, nil, fmt.Errorf("logon: %w", err)
		}
		st.clients = append(st.clients, cl)
	}
	for _, sql := range w.Setup {
		r, err := st.clients[0].Do(sql, false)
		if err != nil {
			return nil, nil, err
		}
		if r.Failure != "" {
			return nil, nil, fmt.Errorf("gateway set-up %q: %s", sql, r.Failure)
		}
	}
	first := w.Streams[0][0]
	r, err := st.clients[0].Do(w.Texts[first], true)
	if err != nil {
		return nil, nil, err
	}
	if err := st.ref.Expect[first].CheckFull(&r); err != nil {
		return nil, nil, fmt.Errorf("first reply to %q: %w", w.Texts[first], err)
	}
	ok = true
	return w, st, nil
}

// RunWire measures one workload over real sockets: setupReps complete
// set-ups (the last one is kept running), a warm-up, and the timed slices.
func RunWire(env Env, name string, seed int64, tm Timing, setupReps int) (*WireResult, error) {
	res := &WireResult{Metrics: make(map[string]float64)}
	var w *Workload
	var st *stack
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if w, st, err = setUp(env, name, seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	defer st.close()
	res.Workload, res.Ref = w, st.ref

	// Fill the caches before the clock starts: every distinct text once. A
	// cold gateway has nothing to fill, and a stream with write cycles is
	// only ever sent in order (its texts carry state from one to the next);
	// the warm-up phase warms those, and everything else (pool dials, parser
	// arenas), through the stream itself.
	if !w.ColdCache && w.CycleLen == 0 {
		for id, sql := range w.Texts {
			r, err := st.clients[0].Do(sql, false)
			if err != nil {
				return nil, err
			}
			res.Attempted++
			if err := st.ref.Expect[id].Check(&r); err != nil {
				res.fail(sql, err)
			}
		}
	}

	// Against a gateway process the load generator keeps to one scheduler
	// thread: clients and canned backend then never take more than one
	// processor from the gateway, and two Go runtimes do not both spin idle
	// threads on the same two processors. Measured here, that alone halved the
	// slice-to-slice spread of throughput.
	if env.GatewayBin != "" {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}

	var phase atomic.Int32
	phase.Store(phaseWarmup)
	stats := make([][]sliceStats, env.Clients)
	var wg sync.WaitGroup
	totals := make([]clientTotals, env.Clients)
	errs := make([]error, env.Clients)
	for c := range st.clients {
		stats[c] = make([]sliceStats, tm.Slices)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			totals[c], errs[c] = clientLoop(st.clients[c], w.Texts, w.Streams[c], st.ref.Expect, &phase, stats[c])
		}(c)
	}

	pid := st.gw.PID()
	self := os.Getpid()
	time.Sleep(tm.Warmup)
	_, res.ProcAvailable = load.ProcCPU(pid)
	q0, svc0 := st.server.Service()
	type mark struct {
		at        time.Time
		gw, bench time.Duration
	}
	sample := func() mark {
		gw, _ := load.ProcCPU(pid)
		bench, _ := load.ProcCPU(self)
		return mark{time.Now(), gw, bench}
	}
	var gwCPU, selfCPU time.Duration
	phase.Store(0)
	from := sample()
	for i := 0; i < tm.Slices; i++ {
		time.Sleep(tm.Slice)
		// The next slice starts the instant this one ends, so no completion
		// falls between two slices.
		if i+1 < tm.Slices {
			phase.Store(int32(i + 1))
		} else {
			phase.Store(phaseStop)
		}
		to := sample()
		dur := to.at.Sub(from.at).Seconds()
		gwCPU += to.gw - from.gw
		selfCPU += to.bench - from.bench
		res.Slices = append(res.Slices, SliceResult{
			Seconds:   dur,
			GwCPUUtil: (to.gw - from.gw).Seconds() / dur,
			// Holds the slice's CPU time until the clients have stopped and
			// its request count is known.
			GwCPUUsPerReq: float64((to.gw - from.gw).Microseconds()),
		})
		from = to
	}
	wg.Wait()
	q1, svc1 := st.server.Service()
	for c, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: client: %w", name, err)
		}
		res.Attempted += totals[c].attempted
		res.Failed += totals[c].failed
		res.Failures = append(res.Failures, totals[c].failures...)
	}

	var all load.Latencies
	for i := range res.Slices {
		sl := &res.Slices[i]
		var lat, ttfr load.Latencies
		var bytes int64
		for c := range stats {
			s := &stats[c][i]
			lat.Merge(&s.lat)
			ttfr.Merge(&s.ttfr)
			sl.Requests += s.completed
			bytes += s.bytes
		}
		all.Merge(&lat)
		sl.ThroughputRps = float64(sl.Requests) / sl.Seconds
		sl.LatencyP50Ms = lat.Quantile(0.5)
		sl.TtfrP50Ms = ttfr.Quantile(0.5)
		sl.ResultMBps = float64(bytes) / 1e6 / sl.Seconds
		sl.GwCPUUsPerReq /= float64(sl.Requests)
	}
	med := func(f func(SliceResult) float64) float64 {
		v := make([]float64, len(res.Slices))
		for i, sl := range res.Slices {
			v[i] = f(sl)
		}
		return load.Median(v)
	}
	res.Samples = all.N()
	res.TailQuantile = load.TailQuantile(all.N())
	res.Metrics["setup_s"] = load.Median(res.SetupS)
	res.Metrics["throughput_rps"] = med(func(s SliceResult) float64 { return s.ThroughputRps })
	res.Metrics["latency_p50_ms"] = med(func(s SliceResult) float64 { return s.LatencyP50Ms })
	res.Metrics["latency_p99_ms"] = all.Quantile(res.TailQuantile)
	res.Metrics["ttfr_p50_ms"] = med(func(s SliceResult) float64 { return s.TtfrP50Ms })
	res.Metrics["result_mb_per_s"] = med(func(s SliceResult) float64 { return s.ResultMBps })
	res.Metrics["gw_cpu_us_per_req"] = math.NaN()
	res.Metrics["gw_rss_peak_mb"] = math.NaN()
	if res.ProcAvailable {
		res.Metrics["gw_cpu_us_per_req"] = med(func(s SliceResult) float64 { return s.GwCPUUsPerReq })
		if rss, ok := load.ProcPeakRSS(pid); ok {
			res.Metrics["gw_rss_peak_mb"] = float64(rss) / 1e6
		}
		if gwCPU > 0 {
			res.LoadgenShare = float64(selfCPU) / float64(gwCPU)
		}
	}
	if q1 > q0 {
		res.CannedReplyUs = float64((svc1 - svc0).Microseconds()) / float64(q1-q0)
	}
	if misses, texts := st.ref.Table.Misses(); misses > 0 {
		res.fail(texts[0], fmt.Errorf("%d requests reached the backend with SQL-B the reference never produced", misses))
	}
	res.Metrics["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	return res, nil
}

// fail records one failed operation.
func (r *WireResult) fail(sql string, err error) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, Failure{SQL: sql, Reason: err.Error()})
	}
}

// clientLoop is one closed-loop client: send, wait for the end of the
// response, check it, repeat, until the coordinator stops the pass. Every
// sampleEvery-th response is captured and compared datum by datum.
func clientLoop(c *load.Client, texts []string, seq []int32, expect []*load.Expect,
	phase *atomic.Int32, stats []sliceStats) (clientTotals, error) {
	var t clientTotals
	for n := 0; phase.Load() != phaseStop; n++ {
		id := seq[n%len(seq)]
		sample := n%sampleEvery == 0
		r, err := c.Do(texts[id], sample)
		if err != nil {
			return t, err
		}
		t.attempted++
		if sample {
			err = expect[id].CheckFull(&r)
		} else {
			err = expect[id].Check(&r)
		}
		if err != nil {
			// A failed request meets no latency limit: it is counted, not
			// timed.
			t.failed++
			if len(t.failures) < maxFailures {
				t.failures = append(t.failures, Failure{SQL: texts[id], Reason: err.Error()})
			}
			continue
		}
		// A request belongs to the slice it completed in; warm-up requests
		// and the one in flight at the stop are checked but not counted.
		ph := phase.Load()
		if ph < 0 {
			continue
		}
		s := &stats[ph]
		s.completed++
		s.bytes += r.RecordBytes
		s.lat.Add(r.End)
		if r.Rows > 0 {
			s.ttfr.Add(r.FirstRecord)
		}
	}
	return t, nil
}
