// Package bench regenerates every table and figure of the paper's
// evaluation (§7): the Figure 2 support matrix, the Table 1 workload
// overview, the Figure 8 customer workload study, and the Figure 9 overhead
// measurements (single-stream TPC-H and the ten-session stress test). Each
// experiment prints the same rows/series the paper reports.
package bench

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/feature"
	"hyperq/internal/odbc"
	"hyperq/internal/workload/customer"
	"hyperq/internal/workload/tpch"
	"hyperq/internal/wstats"

	"hyperq/internal/hyperq"
)

// Fig2 recomputes the Figure 2 support matrix: for each selected Teradata
// feature, the percentage of modeled cloud targets supporting it natively.
func Fig2(w io.Writer) {
	targets := dialect.CloudTargets()
	pct := dialect.SupportPct(dialect.Figure2Features, targets)
	fmt.Fprintf(w, "Figure 2: Support for select Teradata features across %d modeled cloud databases\n", len(targets))
	fmt.Fprintf(w, "%-28s %10s   %s\n", "Feature", "Support", "Targets")
	feats := append([]dialect.Capability(nil), dialect.Figure2Features...)
	sort.SliceStable(feats, func(i, j int) bool { return pct[feats[i]] > pct[feats[j]] })
	for _, f := range feats {
		var who []string
		for _, t := range targets {
			if t.Supports(f) {
				who = append(who, t.Name)
			}
		}
		fmt.Fprintf(w, "%-28s %9.0f%%   %v\n", f.String(), pct[f], who)
	}
}

// Table1 prints the customer/workload overview.
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: Overview of customers and workloads")
	fmt.Fprintf(w, "%-10s %-8s %22s\n", "Customer", "Sector", "Total (Distinct) Queries")
	for i, spec := range []customer.Spec{customer.Workload1(), customer.Workload2()} {
		qs := customer.Generate(spec)
		fmt.Fprintf(w, "%-10d %-8s %15d (%d)\n", i+1, spec.Sector, customer.TotalOf(qs), len(qs))
	}
}

// Fig8Result carries one workload's measured statistics.
type Fig8Result struct {
	Name string
	// PresencePct is Figure 8a: % of the 9 tracked features per class
	// appearing at least once.
	PresencePct map[feature.Class]float64
	// QueryPct is Figure 8b: % of distinct queries affected per class.
	QueryPct map[feature.Class]float64
}

// Fig8 replays both customer workloads through the instrumented gateway and
// reports the recovered class statistics. With scale < 1 the distinct/total
// counts shrink proportionally (for quick runs).
func Fig8(w io.Writer, scale float64) ([]Fig8Result, error) {
	var out []Fig8Result
	for _, spec := range []customer.Spec{customer.Workload1(), customer.Workload2()} {
		if scale < 1 {
			spec.Distinct = int(float64(spec.Distinct) * scale)
			if spec.Distinct < 100 {
				spec.Distinct = 100
			}
			spec.Total = spec.Distinct * 10
		}
		fv, err := replayWorkload(spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		r := Fig8Result{
			Name:        spec.Name,
			PresencePct: make(map[feature.Class]float64, len(feature.Classes)),
			QueryPct:    make(map[feature.Class]float64, len(feature.Classes)),
		}
		for _, c := range feature.Classes {
			r.PresencePct[c] = fv.ClassPresencePct[c.String()]
			r.QueryPct[c] = fv.ClassQueryPct[c.String()]
		}
		out = append(out, r)
	}
	fmt.Fprintln(w, "Figure 8 (a): Percentage of tracked features contained in each workload")
	printClassRows(w, out, func(r Fig8Result, c feature.Class) float64 { return r.PresencePct[c] })
	fmt.Fprintln(w, "\nFigure 8 (b): Percentage of queries affected by each feature class")
	printClassRows(w, out, func(r Fig8Result, c feature.Class) float64 { return r.QueryPct[c] })
	return out, nil
}

func printClassRows(w io.Writer, rs []Fig8Result, get func(Fig8Result, feature.Class) float64) {
	fmt.Fprintf(w, "%-16s", "Class")
	for _, r := range rs {
		fmt.Fprintf(w, " %14s", r.Name)
	}
	fmt.Fprintln(w)
	for _, c := range feature.Classes {
		fmt.Fprintf(w, "%-16s", c.String())
		for _, r := range rs {
			fmt.Fprintf(w, " %13.1f%%", get(r, c))
		}
		fmt.Fprintln(w)
	}
}

// replayWorkload runs one customer workload through a gateway and returns the
// statistics registry's Figure 8 view of it. Setup statements run before the
// registry is reset, so they stay out of the measurement.
func replayWorkload(spec customer.Spec) (*wstats.FeatureView, error) {
	eng := engine.New(dialect.CloudA())
	be := eng.NewSession()
	for _, ddl := range customer.SchemaDDL {
		if _, err := be.ExecSQL(ddl); err != nil {
			return nil, err
		}
	}
	g, err := hyperq.New(hyperq.Config{
		Target:  dialect.CloudA(),
		Driver:  &odbc.LocalDriver{Engine: eng},
		Catalog: eng.Catalog().Clone(),
	})
	if err != nil {
		return nil, err
	}
	s, err := g.NewLocalSession("study")
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for _, setup := range customer.GatewaySetup {
		if _, err := s.Run(setup); err != nil {
			return nil, fmt.Errorf("setup %q: %w", setup, err)
		}
	}
	g.ResetMetrics()
	for _, q := range customer.Generate(spec) {
		if _, err := s.Run(q.SQL); err != nil {
			return nil, fmt.Errorf("query %q: %w", q.SQL, err)
		}
	}
	fv := g.Statements().Features()
	if fv.Approximate {
		return nil, fmt.Errorf("statistics registry evicted shapes: Figure 8 would be approximate")
	}
	return &fv, nil
}

// Fig9Result is one overhead measurement.
type Fig9Result struct {
	Label        string
	Translate    time.Duration
	Execute      time.Duration
	Convert      time.Duration
	Queries      int64
	TranslatePct float64
	ConvertPct   float64
	OverheadPct  float64
}

func snapshotToResult(label string, m hyperq.MetricsSnapshot) Fig9Result {
	total := m.Translate + m.Execute + m.Convert
	r := Fig9Result{
		Label:     label,
		Translate: m.Translate,
		Execute:   m.Execute,
		Convert:   m.Convert,
		Queries:   m.Requests,
	}
	if total > 0 {
		r.TranslatePct = 100 * float64(m.Translate) / float64(total)
		r.ConvertPct = 100 * float64(m.Convert) / float64(total)
		r.OverheadPct = r.TranslatePct + r.ConvertPct
	}
	return r
}

// NewTPCHGateway builds a loaded TPC-H engine for the target and fronts it
// with a gateway using the in-process driver (so Figure 9 measures gateway
// overhead, not socket noise).
func NewTPCHGateway(target *dialect.Profile, sf float64) (*hyperq.Gateway, error) {
	eng := engine.New(target)
	if err := tpch.SetupEngine(eng.NewSession(), sf); err != nil {
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
	return g, nil
}

// Fig9a runs the 22 TPC-H queries on a single sequential session (the §7.2
// setup) and reports the aggregated elapsed-time split.
func Fig9a(w io.Writer, target *dialect.Profile, sf float64, repetitions int) (Fig9Result, error) {
	g, err := NewTPCHGateway(target, sf)
	if err != nil {
		return Fig9Result{}, err
	}
	s, err := g.NewLocalSession("bench")
	if err != nil {
		return Fig9Result{}, err
	}
	defer s.Close()
	// Warm-up pass (excluded from the measurement).
	for _, qn := range tpch.QueryNumbers() {
		if _, err := s.Run(tpch.Queries[qn]); err != nil {
			return Fig9Result{}, fmt.Errorf("Q%d: %w", qn, err)
		}
	}
	g.ResetMetrics()
	for rep := 0; rep < repetitions; rep++ {
		for _, qn := range tpch.QueryNumbers() {
			if _, err := s.Run(tpch.Queries[qn]); err != nil {
				return Fig9Result{}, fmt.Errorf("Q%d: %w", qn, err)
			}
		}
	}
	res := snapshotToResult(fmt.Sprintf("TPC-H SF %.3f on %s, single stream", sf, target.Name), g.MetricsSnapshot())
	printFig9(w, "Figure 9 (a): Aggregated elapsed time for single sequential run", res)
	return res, nil
}

// Fig9b runs the stress scenario of §7.3: `clients` concurrent sessions each
// repeatedly submitting the TPC-H mix (plus the vendor-feature variants the
// Fortune-10 workload contained).
func Fig9b(w io.Writer, target *dialect.Profile, sf float64, clients, iterations int) (Fig9Result, error) {
	g, err := NewTPCHGateway(target, sf)
	if err != nil {
		return Fig9Result{}, err
	}
	// Warm-up.
	warm, err := g.NewLocalSession("warm")
	if err != nil {
		return Fig9Result{}, err
	}
	for _, qn := range tpch.QueryNumbers() {
		if _, err := warm.Run(tpch.Queries[qn]); err != nil {
			return Fig9Result{}, err
		}
	}
	warm.Close()
	g.ResetMetrics()

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s, err := g.NewLocalSession(fmt.Sprintf("client%d", c))
			if err != nil {
				errs[c] = err
				return
			}
			defer s.Close()
			mix := make([]string, 0, 27)
			for _, qn := range tpch.QueryNumbers() {
				mix = append(mix, tpch.Queries[qn])
			}
			mix = append(mix, tpch.VendorVariants...)
			for it := 0; it < iterations; it++ {
				q := mix[(it+c)%len(mix)]
				if _, err := s.Run(q); err != nil {
					errs[c] = fmt.Errorf("client %d: %w", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Fig9Result{}, err
		}
	}
	res := snapshotToResult(
		fmt.Sprintf("TPC-H SF %.3f on %s, %d concurrent sessions x %d requests", sf, target.Name, clients, iterations),
		g.MetricsSnapshot())
	printFig9(w, "Figure 9 (b): Aggregated elapsed time for concurrent stress test", res)
	return res, nil
}

func printFig9(w io.Writer, title string, r Fig9Result) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "  %s (%d requests)\n", r.Label, r.Queries)
	total := r.Translate + r.Execute + r.Convert
	fmt.Fprintf(w, "  %-22s %12v  %6.2f%%\n", "Query translation", r.Translate, r.TranslatePct)
	fmt.Fprintf(w, "  %-22s %12v  %6.2f%%\n", "Execution", r.Execute, 100*float64(r.Execute)/float64(maxDur(total, 1)))
	fmt.Fprintf(w, "  %-22s %12v  %6.2f%%\n", "Result transformation", r.Convert, r.ConvertPct)
	fmt.Fprintf(w, "  %-22s %12v\n", "Total", total)
	fmt.Fprintf(w, "  Hyper-Q overhead: %.2f%% of total query response time\n", r.OverheadPct)
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// CompareResult is one target's end-to-end timing for the TPC-H stream.
type CompareResult struct {
	Target   string
	Total    time.Duration
	Overhead float64
}

// Compare implements the Appendix B.4 use case: "customers can compare
// side-by-side how their workloads perform on a variety of potential target
// databases, which can be used to guide their decision of where to migrate
// to." The same Teradata-dialect TPC-H stream runs through the gateway
// against every modeled target.
func Compare(w io.Writer, sf float64) ([]CompareResult, error) {
	fmt.Fprintf(w, "Side-by-side target evaluation (Appendix B.4), TPC-H SF %.3f\n", sf)
	fmt.Fprintf(w, "%-10s %14s %14s %14s %12s\n", "Target", "Translate", "Execute", "Convert", "Overhead")
	var out []CompareResult
	for _, target := range dialect.CloudTargets() {
		g, err := NewTPCHGateway(target, sf)
		if err != nil {
			return nil, err
		}
		s, err := g.NewLocalSession("compare")
		if err != nil {
			return nil, err
		}
		for _, qn := range tpch.QueryNumbers() {
			if _, err := s.Run(tpch.Queries[qn]); err != nil {
				s.Close()
				return nil, fmt.Errorf("%s Q%d: %w", target.Name, qn, err)
			}
		}
		s.Close()
		m := g.MetricsSnapshot()
		total := m.Translate + m.Execute + m.Convert
		r := CompareResult{Target: target.Name, Total: total, Overhead: 100 * m.Overhead()}
		out = append(out, r)
		fmt.Fprintf(w, "%-10s %14v %14v %14v %11.2f%%\n",
			target.Name, m.Translate.Round(time.Microsecond), m.Execute.Round(time.Millisecond),
			m.Convert.Round(time.Microsecond), r.Overhead)
	}
	return out, nil
}
