package bench

import (
	"bytes"
	"strings"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/feature"
)

// TestFig2Output pins the whole Figure 2 table: the support percentages are
// a pure function of the profile table, and rows with equal support keep
// Figure2Features order.
func TestFig2Output(t *testing.T) {
	const want = `Figure 2: Support for select Teradata features across 4 modeled cloud databases
Feature                         Support   Targets
Ordinal GROUP BY                    75%   [CloudA CloudB CloudD]
OLAP grouping extensions            75%   [CloudB CloudC CloudD]
Derived table column aliases        75%   [CloudA CloudC CloudD]
MERGE                               50%   [CloudC CloudD]
QUALIFY                             25%   [CloudD]
Recursive queries                   25%   [CloudD]
Implicit joins                       0%   []
Named expressions                    0%   []
Date-Integer comparison              0%   []
Vector subqueries                    0%   []
Macros                               0%   []
SET tables                           0%   []
`
	var buf bytes.Buffer
	Fig2(&buf)
	if got := buf.String(); got != want {
		t.Errorf("Fig2 output:\n%s\nwant:\n%s", got, want)
	}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"Health", "Telco", "39731 (3778)", "192753 (10446)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig8Scaled(t *testing.T) {
	var buf bytes.Buffer
	results, err := Fig8(&buf, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	// Figure 8a shape is exact even when scaled: presence depends only on
	// which features exist in the workload.
	w1 := results[0]
	if w1.PresencePct[feature.ClassTransformation] < 77 || w1.PresencePct[feature.ClassTransformation] > 78 {
		t.Errorf("W1 transformation presence = %.1f", w1.PresencePct[feature.ClassTransformation])
	}
	w2 := results[1]
	if w2.QueryPct[feature.ClassEmulation] < 70 {
		t.Errorf("W2 emulation pct = %.1f, want ~79", w2.QueryPct[feature.ClassEmulation])
	}
	if !strings.Contains(buf.String(), "Figure 8 (a)") || !strings.Contains(buf.String(), "Figure 8 (b)") {
		t.Error("figure headers missing")
	}
}

func TestFig9aSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("fig9a in short mode")
	}
	var buf bytes.Buffer
	res, err := Fig9a(&buf, dialect.CloudA(), 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 22 {
		t.Fatalf("queries = %d", res.Queries)
	}
	if res.OverheadPct <= 0 || res.OverheadPct >= 100 {
		t.Fatalf("overhead = %.2f%%", res.OverheadPct)
	}
	if !strings.Contains(buf.String(), "Hyper-Q overhead") {
		t.Error("output missing overhead line")
	}
}

func TestFig9bSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("fig9b in short mode")
	}
	var buf bytes.Buffer
	res, err := Fig9b(&buf, dialect.CloudA(), 0.001, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 4*10 {
		t.Fatalf("requests = %d", res.Queries)
	}
	if res.OverheadPct <= 0 || res.OverheadPct >= 100 {
		t.Fatalf("overhead = %.2f%%", res.OverheadPct)
	}
}
