package hyperqbench

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/hyperq"
	"hyperq/internal/odbc"
)

// subsetCaps are the capability bits that change what the gateway or the
// engine does; every other bit is Figure 2 data only.
var subsetCaps = []dialect.Capability{
	dialect.CapRecursive, dialect.CapGroupingSets, dialect.CapVectorSubquery,
	dialect.CapDateArith, dialect.CapGlobalTempTables, dialect.CapSetTables,
}

// subsetSetup loads the backend directly, in the engine's own dialect.
var subsetSetup = []string{
	"CREATE TABLE hier (empno INT, mgrno INT)",
	"INSERT INTO hier VALUES (1, 0), (2, 1), (3, 1), (4, 2), (5, 4), (6, 9)",
	"CREATE TABLE sales (amount DECIMAL(12,2), sales_date DATE, store INT, region INT)",
	`INSERT INTO sales VALUES (100.00, DATE '2014-02-01', 1, 1), (250.00, DATE '2014-03-31', 1, 1),
	  (80.00, DATE '2013-12-31', 2, 1), (250.00, DATE '2014-06-01', 2, 2), (NULL, DATE '2016-02-29', 3, 2)`,
	"CREATE TABLE hist (gross DECIMAL(12,2), net DECIMAL(12,2))",
	"INSERT INTO hist VALUES (90.00, 70.00), (240.00, 200.00), (100.00, NULL)",
	"CREATE TABLE product (name VARCHAR(40), store INT)",
	"INSERT INTO product VALUES ('widget', 1), ('gadget', 1), ('gizmo', 2)",
}

// subsetStatements touch each of subsetCaps plus the target write rules
// (function spelling, month arithmetic), in the source dialect.
var subsetStatements = []string{
	`WITH RECURSIVE r (empno, mgrno) AS (
	   SEL empno, mgrno FROM hier WHERE mgrno = 0
	   UNION ALL
	   SEL hier.empno, hier.mgrno FROM hier, r WHERE r.empno = hier.mgrno)
	 SEL empno, mgrno FROM r`,
	"SEL region, store, SUM(amount) FROM sales GROUP BY ROLLUP(region, store)",
	"SEL region, store, COUNT(*) FROM sales GROUP BY CUBE(region, store)",
	"SEL store, amount FROM sales WHERE (amount, amount * 0.85) > ANY (SEL gross, net FROM hist)",
	"SEL store, amount FROM sales WHERE (store, amount) < ALL (SEL 2, gross FROM hist)",
	"SEL sales_date + 30, sales_date - 7, 1 + sales_date FROM sales",
	"SEL ADD_MONTHS(sales_date, 1), ADD_MONTHS(sales_date, -3) FROM sales",
	"SEL CHARS(name), POSITION('g' IN name) FROM product",
	"CREATE GLOBAL TEMPORARY TABLE gt (x INT) ON COMMIT PRESERVE ROWS",
	"INSERT INTO gt (x) VALUES (5), (6)",
	"SEL x FROM gt",
	"CREATE SET TABLE st (a INT, b INT)",
	"INSERT INTO st (a, b) VALUES (1, 1), (1, 1), (2, 2)",
	"INSERT INTO st (a, b) VALUES (1, 1), (3, 3)",
	"SEL a, b FROM st",
}

// subsetAnswers runs subsetStatements through an in-process gateway in front
// of an engine that enforces the same profile, and renders each statement's
// answer with its rows sorted, so that equal strings mean equal multisets.
func subsetAnswers(p *dialect.Profile) ([]string, error) {
	eng := engine.New(p)
	be := eng.NewSession()
	for _, sql := range subsetSetup {
		if _, err := be.ExecSQL(sql); err != nil {
			return nil, fmt.Errorf("setup %q: %w", sql, err)
		}
	}
	g, err := hyperq.New(hyperq.Config{
		Target:  p,
		Driver:  &odbc.LocalDriver{Engine: eng},
		Catalog: eng.Catalog().Clone(),
	})
	if err != nil {
		return nil, err
	}
	s, err := g.NewLocalSession("subset")
	if err != nil {
		return nil, err
	}
	defer s.Close()
	out := make([]string, len(subsetStatements))
	for i, sql := range subsetStatements {
		res, err := s.Run(sql)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", sql, err)
		}
		var b strings.Builder
		for _, r := range res {
			fmt.Fprintf(&b, "%s %d %v\n", r.Command, r.Activity, r.Cols)
			rows := make([]string, len(r.Rows))
			for j, row := range r.Rows {
				rows[j] = fmt.Sprint(row)
			}
			sort.Strings(rows)
			b.WriteString(strings.Join(rows, "\n"))
		}
		out[i] = b.String()
	}
	return out, nil
}

// TestCapabilitySubsetsAnswerLikeReference crosses every subset of subsetCaps
// with the write rules of each cloud target and requires every resulting
// profile to answer every statement exactly like the profile with no
// capabilities, where the gateway rewrites or emulates everything. The
// profiles are plain literals: a capability combination no shipped target
// has is as easy to build as one that does.
func TestCapabilitySubsetsAnswerLikeReference(t *testing.T) {
	ref, err := subsetAnswers(&dialect.Profile{Name: "reference"})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, row := range dialect.CloudTargets() {
		for mask := 0; mask < 1<<len(subsetCaps); mask++ {
			var on []dialect.Capability
			for i, c := range subsetCaps {
				if mask&(1<<i) != 0 {
					on = append(on, c)
				}
			}
			p := &dialect.Profile{
				Name:       fmt.Sprintf("%s%v", row.Name, on),
				Caps:       dialect.CapsOf(on...),
				MonthArith: row.MonthArith,
				FuncNames:  row.FuncNames,
			}
			got, err := subsetAnswers(p)
			if err != nil {
				t.Errorf("%s: %v", p.Name, err)
				continue
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Errorf("%s: %q answered\n%s\nwant\n%s", p.Name, subsetStatements[i], got[i], ref[i])
				}
			}
		}
	}
}
