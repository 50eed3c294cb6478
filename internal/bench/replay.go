package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/hyperq"
	"hyperq/internal/odbc"
	"hyperq/internal/querylog"
	"hyperq/internal/replay"
	"hyperq/internal/workload/customer"
)

// ReplayRun is one replay pass over the captured workload at a given
// speed-up (0 = maximum speed, no pacing).
type ReplayRun struct {
	Speedup     float64 `json:"speedup"`
	ElapsedNs   int64   `json:"elapsed_ns"`
	StmtsPerSec float64 `json:"stmts_per_sec"`
	Replayed    int     `json:"replayed"`
	Equivalent  bool    `json:"equivalent"`
}

// ReplayResult measures the shadow-replay harness: statements per second at
// 1x, 10x, and maximum speed through the dual-backend compare pipeline, and
// the cost of divergence checking itself — the max-speed dual replay versus
// the same statement streams through a single-backend gateway with no
// comparison.
type ReplayResult struct {
	Sessions       int         `json:"sessions"`
	Statements     int         `json:"statements"`
	CapturedSpanNs int64       `json:"captured_span_ns"`
	Runs           []ReplayRun `json:"runs"`
	// SingleElapsedNs replays the same streams through one backend with no
	// divergence checking; the overhead percentage compares it to the
	// max-speed dual run (which executes every statement twice and diffs
	// every read).
	SingleElapsedNs       int64   `json:"single_backend_elapsed_ns"`
	SingleStmtsPerSec     float64 `json:"single_backend_stmts_per_sec"`
	DivergenceOverheadPct float64 `json:"divergence_check_overhead_pct"`
}

// newCustomerEngine loads the customer schema into a fresh engine.
func newCustomerEngine(target *dialect.Profile) (*engine.Engine, error) {
	eng := engine.New(target)
	s := eng.NewSession()
	for _, ddl := range customer.SchemaDDL {
		if _, err := s.ExecSQL(ddl); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// captureWorkloads drives both customer workloads (perWorkload statements
// each) through a capture-mode gateway and returns the reconstructed
// per-session streams.
func captureWorkloads(target *dialect.Profile, perWorkload int) ([]querylog.Stream, error) {
	eng, err := newCustomerEngine(target)
	if err != nil {
		return nil, err
	}
	g, err := hyperq.New(hyperq.Config{
		Target:  target,
		Driver:  &odbc.LocalDriver{Engine: eng},
		Catalog: eng.Catalog().Clone(),
	})
	if err != nil {
		return nil, err
	}
	setup, err := g.NewLocalSession("setup")
	if err != nil {
		return nil, err
	}
	for _, sql := range customer.GatewaySetup {
		if _, err := setup.Run(sql); err != nil {
			return nil, fmt.Errorf("setup %q: %w", sql, err)
		}
	}
	setup.Close()

	dir, err := os.MkdirTemp("", "replaybench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "capture.log")
	w, err := querylog.Open(path, querylog.Options{Redact: true, Capture: true})
	if err != nil {
		return nil, err
	}
	g.SetQueryLog(w)
	specs := []customer.Spec{customer.Workload1(), customer.Workload2()}
	for i, spec := range specs {
		spec.Distinct, spec.Total = perWorkload, perWorkload
		s, err := g.NewLocalSession(fmt.Sprintf("app%d", i+1))
		if err != nil {
			return nil, err
		}
		for _, q := range customer.Generate(spec) {
			if _, err := s.Run(q.SQL); err != nil {
				s.Close()
				return nil, fmt.Errorf("capture %q: %w", q.SQL, err)
			}
		}
		s.Close()
	}
	g.SetQueryLog(nil)
	if err := w.Close(); err != nil {
		return nil, err
	}
	return replay.Load(path)
}

// dualReplay runs one compare replay over fresh backend pairs.
func dualReplay(target *dialect.Profile, streams []querylog.Stream, speedup float64) (*replay.Report, error) {
	base, err := newCustomerEngine(target)
	if err != nil {
		return nil, err
	}
	cand, err := newCustomerEngine(target)
	if err != nil {
		return nil, err
	}
	r, err := replay.NewRunner(replay.Config{
		Target:        target,
		Baseline:      &odbc.LocalDriver{Engine: base},
		Candidate:     &odbc.LocalDriver{Engine: cand},
		BaselineName:  "baseline",
		CandidateName: "candidate",
		Speedup:       speedup,
		Catalog:       base.Catalog().Clone(),
	})
	if err != nil {
		return nil, err
	}
	if err := r.Prepare("setup", customer.GatewaySetup); err != nil {
		return nil, err
	}
	return r.Replay(streams), nil
}

// singleReplay runs the same streams through one backend with no divergence
// checking, at maximum speed — the baseline the dual-dispatch overhead is
// measured against.
func singleReplay(target *dialect.Profile, streams []querylog.Stream) (time.Duration, error) {
	eng, err := newCustomerEngine(target)
	if err != nil {
		return 0, err
	}
	g, err := hyperq.New(hyperq.Config{
		Target:  target,
		Driver:  &odbc.LocalDriver{Engine: eng},
		Catalog: eng.Catalog().Clone(),
	})
	if err != nil {
		return 0, err
	}
	setup, err := g.NewLocalSession("setup")
	if err != nil {
		return 0, err
	}
	for _, sql := range customer.GatewaySetup {
		if _, err := setup.Run(sql); err != nil {
			return 0, err
		}
	}
	setup.Close()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(streams))
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := g.NewLocalSession(streams[i].User)
			if err != nil {
				errs[i] = err
				return
			}
			defer s.Close()
			for _, e := range streams[i].Entries {
				if _, err := s.Run(e.ReplaySQL()); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// ReplayBench captures both customer workloads (perWorkload statements each)
// and measures the shadow-replay harness at 1x, 10x, and maximum speed, plus
// the divergence-check overhead versus a single-backend replay. With a
// non-empty path the result is also written as JSON.
func ReplayBench(w io.Writer, target *dialect.Profile, perWorkload int, path string) (ReplayResult, error) {
	streams, err := captureWorkloads(target, perWorkload)
	if err != nil {
		return ReplayResult{}, fmt.Errorf("capture: %w", err)
	}
	res := ReplayResult{Sessions: len(streams)}
	for _, st := range streams {
		res.Statements += len(st.Entries)
	}
	fmt.Fprintf(w, "Shadow replay: %d statements captured across %d sessions\n", res.Statements, res.Sessions)
	for _, speedup := range []float64{1, 10, 0} {
		rep, err := dualReplay(target, streams, speedup)
		if err != nil {
			return ReplayResult{}, fmt.Errorf("replay %gx: %w", speedup, err)
		}
		if !rep.Equivalent {
			return ReplayResult{}, fmt.Errorf("replay %gx: identical profiles diverged:\n%s", speedup, rep.Summary())
		}
		res.CapturedSpanNs = rep.CapturedSpanNs
		run := ReplayRun{
			Speedup:    speedup,
			ElapsedNs:  rep.DurationNs,
			Replayed:   rep.Replayed,
			Equivalent: rep.Equivalent,
		}
		if rep.DurationNs > 0 {
			run.StmtsPerSec = float64(rep.Replayed) / (float64(rep.DurationNs) / float64(time.Second))
		}
		res.Runs = append(res.Runs, run)
		label := fmt.Sprintf("%gx", speedup)
		if speedup == 0 {
			label = "max"
		}
		fmt.Fprintf(w, "  %-5s dual replay: %d stmts in %v (%.0f stmts/s)\n",
			label, run.Replayed, time.Duration(run.ElapsedNs).Round(time.Millisecond), run.StmtsPerSec)
	}
	single, err := singleReplay(target, streams)
	if err != nil {
		return ReplayResult{}, fmt.Errorf("single replay: %w", err)
	}
	res.SingleElapsedNs = int64(single)
	if single > 0 {
		res.SingleStmtsPerSec = float64(res.Statements) / single.Seconds()
	}
	maxRun := res.Runs[len(res.Runs)-1]
	if res.SingleElapsedNs > 0 {
		res.DivergenceOverheadPct = 100 * float64(maxRun.ElapsedNs-res.SingleElapsedNs) / float64(res.SingleElapsedNs)
	}
	fmt.Fprintf(w, "  single backend, no compare: %d stmts in %v (%.0f stmts/s)\n",
		res.Statements, single.Round(time.Millisecond), res.SingleStmtsPerSec)
	fmt.Fprintf(w, "  divergence checking (dual dispatch + diff): %+.1f%% over single-backend replay\n",
		res.DivergenceOverheadPct)
	if path != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return ReplayResult{}, err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return ReplayResult{}, err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return res, nil
}
