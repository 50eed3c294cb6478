package customer

import (
	"math"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/feature"
	"hyperq/internal/odbc"

	"hyperq/internal/hyperq"
	"hyperq/internal/wstats"
)

func TestSpecShapesMatchTable1(t *testing.T) {
	w1, w2 := Workload1(), Workload2()
	if w1.Distinct != 3778 || w1.Total != 39731 {
		t.Errorf("workload 1 sizes = %d/%d", w1.Total, w1.Distinct)
	}
	if w2.Distinct != 10446 || w2.Total != 192753 {
		t.Errorf("workload 2 sizes = %d/%d", w2.Total, w2.Distinct)
	}
	// Figure 8a presence counts: 5/7/3 and 2/6/3 of 9.
	if len(w1.Translation.Features) != 5 || len(w1.Transformation.Features) != 7 || len(w1.Emulation.Features) != 3 {
		t.Error("workload 1 feature counts wrong")
	}
	if len(w2.Translation.Features) != 2 || len(w2.Transformation.Features) != 6 || len(w2.Emulation.Features) != 3 {
		t.Error("workload 2 feature counts wrong")
	}
}

func TestGenerateDeterministicAndComplete(t *testing.T) {
	spec := Workload1()
	q1 := Generate(spec)
	q2 := Generate(spec)
	if len(q1) != spec.Distinct {
		t.Fatalf("distinct = %d", len(q1))
	}
	for i := range q1 {
		if q1[i].SQL != q2[i].SQL || q1[i].Repeats != q2[i].Repeats {
			t.Fatal("generation not deterministic")
		}
	}
	if TotalOf(q1) != spec.Total {
		t.Fatalf("total = %d, want %d", TotalOf(q1), spec.Total)
	}
	for _, q := range q1 {
		if q.Repeats < 1 {
			t.Fatal("query with zero repeats")
		}
		if q.SQL == "" {
			t.Fatal("empty query")
		}
	}
}

func TestEveryPresentFeatureAppears(t *testing.T) {
	for _, spec := range []Spec{Workload1(), Workload2()} {
		qs := Generate(spec)
		seen := map[feature.ID]bool{}
		for _, q := range qs {
			if q.Class >= 0 {
				seen[q.Feature] = true
			}
		}
		for _, cs := range spec.classes() {
			for _, fw := range cs.Features {
				if !seen[fw.ID] {
					t.Errorf("%s: feature %s never generated", spec.Name, feature.Lookup(fw.ID).Name)
				}
			}
		}
	}
}

// replay runs a (down-scaled) workload through the gateway and returns the
// statistics registry's Figure 8 view of it — the §7.1 experiment in
// miniature.
func replay(t *testing.T, spec Spec) wstats.FeatureView {
	t.Helper()
	eng := engine.New(dialect.CloudA())
	be := eng.NewSession()
	for _, ddl := range SchemaDDL {
		if _, err := be.ExecSQL(ddl); err != nil {
			t.Fatalf("schema: %v", err)
		}
	}
	g, err := hyperq.New(hyperq.Config{
		Target:  dialect.CloudA(),
		Driver:  &odbc.LocalDriver{Engine: eng},
		Catalog: eng.Catalog().Clone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.NewLocalSession("study")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, setup := range GatewaySetup {
		if _, err := s.Run(setup); err != nil {
			t.Fatalf("gateway setup %q: %v", setup, err)
		}
	}
	g.ResetMetrics()
	for _, q := range Generate(spec) {
		if _, err := s.Run(q.SQL); err != nil {
			t.Fatalf("%s: query %q: %v", spec.Name, q.SQL, err)
		}
	}
	fv := g.Statements().Features()
	if fv.Approximate {
		t.Fatalf("%s: statistics registry evicted shapes", spec.Name)
	}
	return fv
}

func within(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

// The instrumented rewrite engine must recover the Figure 8 statistics from
// the generated workload.
func TestReplayRecoversFigure8(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload replay in short mode")
	}
	type expect struct {
		spec     Spec
		presence [3]float64 // Figure 8a
		queries  [3]float64 // Figure 8b
	}
	cases := []expect{
		{Workload1(), [3]float64{55.6, 77.8, 33.3}, [3]float64{1.4, 33.6, 0.2}},
		{Workload2(), [3]float64{22.2, 66.7, 33.3}, [3]float64{0.2, 4.0, 79.1}},
	}
	for _, c := range cases {
		fv := replay(t, c.spec)
		if fv.Queries != int64(c.spec.Distinct) {
			t.Fatalf("%s: observed %d queries, want %d", c.spec.Name, fv.Queries, c.spec.Distinct)
		}
		for i, cl := range feature.Classes {
			pres, qpct := fv.ClassPresencePct[cl.String()], fv.ClassQueryPct[cl.String()]
			if !within(pres, c.presence[i], 0.2) {
				t.Errorf("%s %s presence = %.1f%%, want %.1f%%", c.spec.Name, cl, pres, c.presence[i])
			}
			if !within(qpct, c.queries[i], 0.6) {
				t.Errorf("%s %s query pct = %.1f%%, want %.1f%%", c.spec.Name, cl, qpct, c.queries[i])
			}
		}
	}
}

// A fast smoke variant used in short mode: a scaled-down spec.
func TestReplaySmallSmoke(t *testing.T) {
	spec := Workload1()
	spec.Distinct = 200
	spec.Total = 1500
	fv := replay(t, spec)
	if fv.Queries != 200 {
		t.Fatalf("queries = %d", fv.Queries)
	}
	if fv.Features[feature.Qualify].Shapes == 0 {
		t.Error("qualify missing from scaled workload")
	}
}
