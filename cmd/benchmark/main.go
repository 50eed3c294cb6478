// Command benchmark regenerates every table and figure of the paper's
// evaluation section (§7).
//
// Usage:
//
//	benchmark -run all                 # everything
//	benchmark -run fig2                # Figure 2 feature support matrix
//	benchmark -run table1              # Table 1 workload overview
//	benchmark -run fig8                # Figures 8(a) and 8(b)
//	benchmark -run fig9a -sf 0.01      # Figure 9(a) single-stream overhead
//	benchmark -run fig9b -clients 10   # Figure 9(b) concurrent stress test
//	benchmark -run replay              # shadow-replay harness throughput
//
// Gateway cost in isolation from the engine — pool, streaming, translation,
// cache tiers — is measured by the over-the-wire benchmark in perf/ (see
// BENCHMARK.json), not here.
//
// Flags -sf, -target, -clients, -iterations and -scale tune experiment size;
// the defaults finish in a few minutes on a laptop.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"hyperq/internal/bench"
	"hyperq/internal/dialect"
)

func main() {
	run := flag.String("run", "all", "experiment: all|fig2|table1|fig8|fig9a|fig9b|compare|replay")
	target := flag.String("target", "CloudA", "target profile for Figure 9")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor for Figure 9")
	reps := flag.Int("reps", 1, "Figure 9(a) repetitions of the 22-query stream")
	clients := flag.Int("clients", 10, "Figure 9(b) concurrent sessions")
	iterations := flag.Int("iterations", 54, "Figure 9(b) requests per session")
	scale := flag.Float64("scale", 1.0, "Figure 8 workload scale (1.0 = paper-size workloads)")
	replayStatements := flag.Int("replay-statements", 150, "replay experiment: captured statements per customer workload")
	out := flag.String("out", "", "replay experiment: write the result as JSON to this file (default BENCH_replay.json)")
	flag.Parse()

	prof, err := dialect.ByName(*target)
	if err != nil {
		log.Fatalf("benchmark: %v", err)
	}
	selected := strings.ToLower(*run)
	did := false
	runIf := func(name string, fn func() error) {
		if selected != "all" && selected != name {
			return
		}
		did = true
		if err := fn(); err != nil {
			log.Fatalf("benchmark: %s: %v", name, err)
		}
		fmt.Println()
	}

	runIf("fig2", func() error {
		bench.Fig2(os.Stdout)
		return nil
	})
	runIf("table1", func() error {
		bench.Table1(os.Stdout)
		return nil
	})
	runIf("fig8", func() error {
		_, err := bench.Fig8(os.Stdout, *scale)
		return err
	})
	runIf("fig9a", func() error {
		_, err := bench.Fig9a(os.Stdout, prof, *sf, *reps)
		return err
	})
	runIf("fig9b", func() error {
		_, err := bench.Fig9b(os.Stdout, prof, *sf, *clients, *iterations)
		return err
	})
	runIf("compare", func() error {
		_, err := bench.Compare(os.Stdout, *sf)
		return err
	})
	if selected == "replay" {
		// Not part of "all": regenerates the checked-in shadow-replay
		// artifact (capture + four replay passes over the customer workloads).
		did = true
		path := *out
		if path == "" {
			path = "BENCH_replay.json"
		}
		if _, err := bench.ReplayBench(os.Stdout, prof, *replayStatements, path); err != nil {
			log.Fatalf("benchmark: replay: %v", err)
		}
	}
	if !did {
		log.Fatalf("benchmark: unknown experiment %q", *run)
	}
}
