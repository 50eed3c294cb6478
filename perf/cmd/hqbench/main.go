// Command hqbench is the repository's benchmark: it builds the unmodified
// cmd/hyperq, runs it as its own process against a canned backend, drives it
// over real sockets from a closed-loop client, and times every layer's public
// entry points in-process. See perf/README.md.
//
// Usage (from the repository root):
//
//	go run ./perf/cmd/hqbench                          # all workloads, both passes
//	go run ./perf/cmd/hqbench -workload cache_hot -seed 7
//	go run ./perf/cmd/hqbench -quick                   # smoke test, in-process gateway
//	go run ./perf/cmd/hqbench -selfcheck               # the suite twice, compared
//	go run ./perf/cmd/hqbench -workload cache_hot -seed 1 -seconds 15 -trace 0
//
// The last form is the benchmark contract of BENCHMARK.json: one workload,
// one pass (-trace 0 end to end, -trace 1 per layer), and the result object
// as the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"hyperq/perf"
)

func main() {
	var o perf.Options
	workload := flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(perf.WorkloadNames, ", "))
	flag.Int64Var(&o.Seed, "seed", 1, "seed of statement order, repeat expansion and generated row values")
	flag.Float64Var(&o.Seconds, "seconds", 24, "measured seconds of one workload's over-the-wire pass (three slices)")
	trace := flag.Int("trace", -1, "contract mode: 0 = over-the-wire pass only, 1 = per-layer pass only; prints the result object last (default: both passes, full report)")
	flag.BoolVar(&o.Quick, "quick", false, "smoke test: in-process gateway, 0.5 s slices, small fixtures")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and require every end-to-end metric to agree within its BENCHMARK.json bound")
	out := flag.String("out", filepath.Join("perf", "out", "hqbench.json"), "where to write the JSON document")
	flag.Parse()

	// A signal ends the process at once; the gateway child is killed by the
	// kernel with it (see perf.dieWithParent).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "hqbench: interrupted")
		os.Exit(130)
	}()

	o.Workloads = perf.WorkloadNames
	if *workload != "all" {
		o.Workloads = []string{*workload}
	}
	o.Wire, o.Layers = *trace != 1, *trace != 0
	if err := run(context.Background(), o, *trace, *selfcheck, *out); err != nil {
		fmt.Fprintln(os.Stderr, "hqbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o perf.Options, trace int, selfcheck bool, out string) error {
	if trace >= 0 && len(o.Workloads) != 1 {
		return fmt.Errorf("-trace needs a single -workload")
	}
	if o.Seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if selfcheck && !o.Wire {
		return fmt.Errorf("-selfcheck compares end-to-end metrics; it cannot be combined with -trace 1")
	}
	o.OutDir = filepath.Dir(out)
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	buildS := 0.0
	if o.Quick {
		o.Seconds = 1.5
	} else {
		bin, took, err := perf.BuildGateway(filepath.Join(o.OutDir, "bin"))
		if err != nil {
			return err
		}
		o.GatewayBin, buildS = bin, took.Seconds()
	}
	env := perf.DescribeEnvironment(o.Seed, o.Seconds, o.Quick, buildS)

	rep, err := perf.Run(ctx, o, env)
	if err != nil {
		return err
	}
	rep.Print(os.Stdout)
	if err := rep.WriteJSON(out); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", out)

	if selfcheck {
		second, err := perf.Run(ctx, o, env)
		if err != nil {
			return err
		}
		if err := compare(rep, second); err != nil {
			return err
		}
	}
	if trace >= 0 {
		line, err := rep.ContractLine(trace == 1)
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	if !rep.Correct() {
		return fmt.Errorf("responses differed from the reference (see failures above)")
	}
	return nil
}

// compare is -selfcheck: two runs of the same commit must agree on every
// end-to-end metric of every workload within the metric's own bound, and
// within a tenth at most.
func compare(a, b *perf.Report) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck reads the bounds from BENCHMARK.json: %w", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return err
	}
	fmt.Println("\nselfcheck: second run against the first")
	bad := 0
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, m := range spec.EndToEnd {
			if m.Name == "setup_s" {
				continue // set-up has no spread requirement, only a regression bound
			}
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			limit := math.Min(m.Bound, 0.1)
			diff := math.Abs(va-vb) / math.Min(va, vb)
			mark := "ok  "
			if !(diff <= limit) {
				mark = "FAIL"
				bad++
			}
			fmt.Printf("  %s %-16s %-20s %14.4f %14.4f  differ by %.4f (limit %.4f)\n", mark, wa.Name, m.Name, va, vb, diff, limit)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) differ between two runs of one commit by more than their bound", bad)
	}
	return nil
}
