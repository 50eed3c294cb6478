package perf

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark has to agree
// with.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestQuickRunEmitsEverythingBenchmarkJSONNames is the smoke run: every
// workload and every metric BENCHMARK.json names comes out of a -quick run
// with a finite value and the declared unit, and no request fails.
func TestQuickRunEmitsEverythingBenchmarkJSONNames(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	o := Options{Workloads: names, Seed: 1, Seconds: 1.5, Wire: true, Layers: true, Quick: true, OutDir: t.TempDir()}
	rep, err := Run(context.Background(), o, DescribeEnvironment(o.Seed, o.Seconds, true, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(spec.Workloads) {
		t.Fatalf("%d workloads reported, BENCHMARK.json names %d", len(rep.Workloads), len(spec.Workloads))
	}
	for i, wl := range rep.Workloads {
		if wl.Name != spec.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, wl.Name, spec.Workloads[i].Name)
		}
		if wl.Failed != 0 || wl.FailedShare != 0 || wl.Attempted == 0 {
			t.Errorf("%s: %d of %d requests failed (share %v): %+v", wl.Name, wl.Failed, wl.Attempted, wl.FailedShare, wl.Failures)
		}
		for _, m := range spec.EndToEnd {
			v, ok := wl.EndToEnd[m.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v); it must be finite and never 0", wl.Name, m.Name, v.Value, ok)
			}
			if v.Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wl.Name, m.Name, v.Unit, m.Unit)
			}
		}
		layer := make(map[string]Value)
		for _, m := range wl.PerLayer {
			layer[m.Name] = Value{m.Value, m.Unit}
		}
		for _, m := range spec.PerLayer {
			v, ok := layer[m.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v)", wl.Name, m.Name, v.Value, ok)
			}
			if v.Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wl.Name, m.Name, v.Unit, m.Unit)
			}
		}
		if len(wl.PerLayer) != len(spec.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, BENCHMARK.json names %d", wl.Name, len(wl.PerLayer), len(spec.PerLayer))
		}
		if _, err := os.Stat(wl.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", wl.Name, err)
		}
	}
	if !rep.Correct() {
		t.Error("report is not correct")
	}
	// The contract's result object for one workload, both ways.
	one := &Report{Env: rep.Env, Workloads: rep.Workloads[:1]}
	for _, traced := range []bool{false, true} {
		line, err := one.ContractLine(traced)
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]Value
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		want := len(spec.EndToEnd)
		if traced {
			want = len(spec.PerLayer)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != want {
			t.Errorf("contract line (traced=%v): %s", traced, line)
		}
	}
}

// TestBenchmarkJSONMeetsTheContract checks the static limits a driver
// refuses the file over, and that it agrees with the code's own tables.
func TestBenchmarkJSONMeetsTheContract(t *testing.T) {
	spec := readSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(WorkloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark has %d", len(spec.Workloads), len(WorkloadNames))
	}
	for i, w := range spec.Workloads {
		use(w.Name)
		if w.Name != WorkloadNames[i] || w.Why != Why[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %q: name or why differs from the code's, or why is over 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(E2EMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark has %d", len(spec.EndToEnd), len(E2EMetrics))
	}
	setup := false
	for i, m := range spec.EndToEnd {
		use(m.Name)
		if e := E2EMetrics[i]; m.Name != e.Name || m.Unit != e.Unit || m.Better != e.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, m, e)
		}
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q or bound %v outside the contract", m.Name, m.Unit, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "perf" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}
