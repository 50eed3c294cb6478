package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"hyperq/perf/layers"
)

// Why records, per workload, the reason it exists (also in BENCHMARK.json).
var Why = map[string]string{
	TranslateCold: "cache off, every distinct Workload 1 statement: each request pays lex-parse-bind-transform-serialize, so the translation layers dominate",
	CacheHot:      "full Workload 1 stream with repeats, working set fits the cache: requests resolve in the cache tiers, leaving framing, pool lease and bookkeeping",
	ResultStream:  "one exact-hit query returning 27,000 wide rows (~8 MB): translation is negligible; cwp/tdf decode, convert and tdp encode do the work",
	SessionMix:    "Workload 2 stream (macro calls, HELP, multi-statement, BT/ET) plus transactional volatile-table cycles: cache bypasses, pool pins, buffered composite results",
}

// E2EMetric defines one end-to-end metric: its unit and which way is better.
type E2EMetric struct {
	Name, Unit, Better string
}

// E2EMetrics lists the end-to-end metrics in reporting order. failed_share
// is reported with them but is not in BENCHMARK.json: it must stay 0, and the
// benchmark contract carries failures in its own attempted/failed fields.
var E2EMetrics = []E2EMetric{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"ttfr_p50_ms", "ms", "lower"},
	{"result_mb_per_s", "MB/s", "higher"},
	{"gw_cpu_us_per_req", "us/req", "lower"},
	{"gw_rss_peak_mb", "MB", "lower"},
}

// Environment describes where and how a report was measured.
type Environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	Transport  string  `json:"transport"`
	Gateway    string  `json:"gateway"` // "process" or "in-process"
	Slices     int     `json:"slices"`
	SliceS     float64 `json:"slice_seconds"`
	WarmupS    float64 `json:"warmup_seconds"`
	BuildS     float64 `json:"build_s"`
}

// DescribeEnvironment fills in what the host can tell.
func DescribeEnvironment(seed int64, seconds float64, quick bool, buildS float64) Environment {
	tm := timing(seconds)
	env := Environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   "unknown",
		Seed:       seed,
		Clients:    Clients(runtime.NumCPU()),
		Transport:  "loopback",
		Gateway:    "process",
		Slices:     tm.Slices,
		SliceS:     tm.Slice.Seconds(),
		WarmupS:    tm.Warmup.Seconds(),
		BuildS:     buildS,
	}
	if quick {
		env.Gateway = "in-process"
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// Value is one reported number.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON writes an unavailable value (NaN) as null: a process metric on
// a host without /proc is absent, not zero.
func (v Value) MarshalJSON() ([]byte, error) {
	if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
		return json.Marshal(struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}{nil, v.Unit})
	}
	type plain Value
	return json.Marshal(plain(v))
}

// Check is one "does this workload stress what it says" figure.
type Check struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Want  string  `json:"want"`
	OK    bool    `json:"ok"`
}

// WorkloadReport is everything measured for one workload.
type WorkloadReport struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	EndToEnd     map[string]Value `json:"end_to_end,omitempty"`
	FailedShare  float64          `json:"failed_share"`
	Samples      int              `json:"latency_samples,omitempty"`
	TailQuantile float64          `json:"latency_tail_quantile,omitempty"`
	SetupS       []float64        `json:"setup_s_repetitions,omitempty"`
	SliceResults []SliceResult    `json:"slices,omitempty"`
	Attempted    int64            `json:"attempted"`
	Failed       int64            `json:"failed"`
	Failures     []Failure        `json:"failures,omitempty"`

	PerLayer  []layers.Metric `json:"per_layer,omitempty"`
	TraceFile string          `json:"trace_file,omitempty"`
	Checks    []Check         `json:"checks,omitempty"`

	layers *layers.Result
	// e2eP50Ms is the over-the-wire median latency the per-layer pass was
	// related to (from this run's full pass or the pass's own short one).
	e2eP50Ms float64
}

func (wr *WorkloadReport) setWire(w *WireResult) {
	wr.EndToEnd = make(map[string]Value, len(E2EMetrics))
	for _, m := range E2EMetrics {
		wr.EndToEnd[m.Name] = Value{w.Metrics[m.Name], m.Unit}
	}
	wr.FailedShare = w.Metrics["failed_share"]
	wr.Samples, wr.TailQuantile = w.Samples, w.TailQuantile
	wr.SetupS, wr.SliceResults = w.SetupS, w.Slices
	wr.Attempted, wr.Failed, wr.Failures = w.Attempted, w.Failed, w.Failures
}

func (wr *WorkloadReport) setLayers(r *layers.Result) {
	wr.PerLayer = r.Metrics
	wr.layers = r
}

// Layer returns a per-layer metric's value.
func (wr *WorkloadReport) Layer(name string) (float64, bool) {
	for _, m := range wr.PerLayer {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// check evaluates what the workload is supposed to stress. A failed check
// does not fail the run; it says the workload no longer measures what its
// name promises and the definitions need another look.
func (wr *WorkloadReport) check(lay bool) {
	add := func(name string, v float64, want string, ok bool) {
		wr.Checks = append(wr.Checks, Check{name, v, want, ok})
	}
	if lay {
		r := wr.layers
		hit, _ := wr.Layer("hyperq.cache.hit_share")
		bypass, _ := wr.Layer("hyperq.cache.bypass_share")
		switch wr.Name {
		case TranslateCold:
			add("translate_self_share_of_run", r.TranslateSelfShare, ">= 0.5", r.TranslateSelfShare >= 0.5)
		case CacheHot:
			add("cache_hit_share", hit, ">= 0.9", hit >= 0.9)
		case ResultStream:
			add("translate_self_share_of_run", r.TranslateSelfShare, "<= 0.1", r.TranslateSelfShare <= 0.1)
			add("result_path_share_of_e2e_p50", r.ResultPathShare, ">= 0.5", r.ResultPathShare >= 0.5)
		case SessionMix:
			add("cache_bypass_share", bypass, ">= 0.5", bypass >= 0.5)
			add("pool_pins_per_write_cycle", r.PinsPerCycle, ">= 1", r.PinsPerCycle >= 1)
		}
		if canned, ok := wr.Layer("canned.reply.us_per_req"); ok {
			if wr.e2eP50Ms > 0 {
				share := canned / 1e3 / wr.e2eP50Ms
				add("canned_reply_share_of_e2e_p50", share, "<= 0.05", share <= 0.05)
			}
		}
	}
	add("failed_requests", float64(wr.Failed), "== 0", wr.Failed == 0)
}

// Report is the one JSON document a run writes.
type Report struct {
	Schema    string            `json:"schema"`
	Env       Environment       `json:"env"`
	Workloads []*WorkloadReport `json:"workloads"`
}

// Correct reports whether every checked response of every workload matched
// its reference.
func (r *Report) Correct() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return false
		}
	}
	return true
}

// WriteJSON writes the document.
func (r *Report) WriteJSON(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Print writes every metric by name and unit.
func (r *Report) Print(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "hqbench  commit=%s  %s  GOMAXPROCS=%d nproc=%d  cpu=%q\n", e.Commit, e.GoVersion, e.GOMAXPROCS, e.NProc, e.CPUModel)
	fmt.Fprintf(w, "load     closed loop, %d clients over %s TCP, gateway %s; seed %d; warm-up %.2fs + %d slices of %.2fs; build_s %.2f\n",
		e.Clients, e.Transport, e.Gateway, e.Seed, e.WarmupS, e.Slices, e.SliceS, e.BuildS)
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "\n== %s ==\n", wl.Name)
		if wl.EndToEnd != nil {
			fmt.Fprintf(w, "end to end (median of %d slices; %d latency samples; latency_p99_ms is the p%g of all timed requests)\n",
				len(wl.SliceResults), wl.Samples, wl.TailQuantile*100)
			for _, m := range E2EMetrics {
				v := wl.EndToEnd[m.Name]
				if math.IsNaN(v.Value) {
					fmt.Fprintf(w, "  %-22s %14s %s\n", m.Name, "unavailable", m.Unit)
					continue
				}
				fmt.Fprintf(w, "  %-22s %14.4f %s\n", m.Name, v.Value, m.Unit)
			}
			fmt.Fprintf(w, "  %-22s %14.6f share (%d failed of %d attempted)\n", "failed_share", wl.FailedShare, wl.Failed, wl.Attempted)
			for i, s := range wl.SliceResults {
				fmt.Fprintf(w, "  slice %d: %d requests, %.1f rps, p50 %.4f ms, gateway cpu %.2f of %d processors\n",
					i, s.Requests, s.ThroughputRps, s.LatencyP50Ms, s.GwCPUUtil, e.NProc)
			}
		}
		if wl.PerLayer != nil {
			fmt.Fprintf(w, "per layer (trace: %s)\n", wl.TraceFile)
			for _, m := range wl.PerLayer {
				fmt.Fprintf(w, "  %-42s %16.4f %-11s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
			}
		}
		for _, c := range wl.Checks {
			mark := "ok  "
			if !c.OK {
				mark = "FAIL"
			}
			fmt.Fprintf(w, "  check %s %-34s %12.4f (want %s)\n", mark, c.Name, c.Value, c.Want)
		}
		for _, f := range wl.Failures {
			fmt.Fprintf(w, "  failure: %s: %s\n", f.SQL, f.Reason)
		}
	}
}

// ContractLine renders the benchmark contract's result object for a
// single-workload run: the end-to-end metrics of an untraced run, or the
// per-layer metrics of a traced one.
func (r *Report) ContractLine(traced bool) (string, error) {
	if len(r.Workloads) != 1 {
		return "", fmt.Errorf("perf: the contract result needs exactly one workload, have %d", len(r.Workloads))
	}
	wl := r.Workloads[0]
	metrics := make(map[string]Value)
	if traced {
		for _, m := range wl.PerLayer {
			metrics[m.Name] = Value{m.Value, m.Unit}
		}
	} else {
		for _, m := range E2EMetrics {
			metrics[m.Name] = wl.EndToEnd[m.Name]
		}
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}{r.Correct(), wl.Attempted, wl.Failed, metrics})
	return string(raw), err
}
