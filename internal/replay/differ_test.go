package replay

import (
	"context"
	"testing"
	"time"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/odbc"
	"hyperq/internal/tdf"
	"hyperq/internal/types"
	"hyperq/internal/wire/cwp"
)

func mkRes(cols []tdf.ColumnMeta, rows [][]types.Datum) []*cwp.StatementResult {
	return []*cwp.StatementResult{{
		Cols:    cols,
		Batches: []*tdf.Batch{{Cols: cols, Rows: rows}},
		Command: "SELECT",
	}}
}

func intCol(name string) tdf.ColumnMeta { return tdf.ColumnMeta{Name: name, Type: types.Int} }

func TestDifferTolerances(t *testing.T) {
	floatCol := []tdf.ColumnMeta{{Name: "f", Type: types.Float}}
	charCol := []tdf.ColumnMeta{{Name: "c", Type: types.Char(5)}}
	tsCol := []tdf.ColumnMeta{{Name: "ts", Type: types.Timestamp}}
	icol := []tdf.ColumnMeta{intCol("x")}
	base := time.Date(2026, 3, 1, 10, 30, 0, 0, time.UTC).UnixMicro()

	cases := []struct {
		name     string
		tol      Tolerance
		sql      string
		cols     []tdf.ColumnMeta
		baseline [][]types.Datum
		observed [][]types.Datum
		wantKind string // "" = equivalent
		wantRow  int
		wantCol  int
	}{
		{
			name: "float drift within eps",
			tol:  Tolerance{FloatEps: 1e-6},
			sql:  "SELECT f FROM t",
			cols: floatCol,
			baseline: [][]types.Datum{{types.NewFloat(3.14159265)}},
			observed: [][]types.Datum{{types.NewFloat(3.141592650001)}},
		},
		{
			name: "float drift beyond eps",
			tol:  Tolerance{FloatEps: 1e-6},
			sql:  "SELECT f FROM t",
			cols: floatCol,
			baseline: [][]types.Datum{{types.NewFloat(3.0)}},
			observed: [][]types.Datum{{types.NewFloat(3.001)}},
			wantKind: odbc.DivCell, wantRow: 0, wantCol: 0,
		},
		{
			name: "float exact mode flags any drift",
			sql:  "SELECT f FROM t",
			cols: floatCol,
			baseline: [][]types.Datum{{types.NewFloat(1.0)}},
			observed: [][]types.Datum{{types.NewFloat(1.0000000001)}},
			wantKind: odbc.DivCell, wantRow: 0, wantCol: 0,
		},
		{
			name: "char padding forgiven",
			tol:  Tolerance{TrimCharPad: true},
			sql:  "SELECT c FROM t",
			cols: charCol,
			baseline: [][]types.Datum{{types.NewChar("AB   ")}},
			observed: [][]types.Datum{{types.NewChar("AB")}},
		},
		{
			name: "char padding strict",
			sql:  "SELECT c FROM t",
			cols: charCol,
			baseline: [][]types.Datum{{types.NewChar("AB   ")}},
			observed: [][]types.Datum{{types.NewChar("AB")}},
			wantKind: odbc.DivCell, wantRow: 0, wantCol: 0,
		},
		{
			name: "timestamp sub-millisecond drift truncated away",
			tol:  Tolerance{TimestampTruncate: time.Millisecond},
			sql:  "SELECT ts FROM t",
			cols: tsCol,
			baseline: [][]types.Datum{{types.NewTimestamp(base + 100)}},
			observed: [][]types.Datum{{types.NewTimestamp(base + 900)}},
		},
		{
			name: "timestamp drift past the precision",
			tol:  Tolerance{TimestampTruncate: time.Millisecond},
			sql:  "SELECT ts FROM t",
			cols: tsCol,
			baseline: [][]types.Datum{{types.NewTimestamp(base)}},
			observed: [][]types.Datum{{types.NewTimestamp(base + 2000)}},
			wantKind: odbc.DivCell, wantRow: 0, wantCol: 0,
		},
		{
			name: "null position differs without order by",
			sql:  "SELECT x FROM t",
			cols: icol,
			baseline: [][]types.Datum{{types.NewNull(types.KindInt)}, {types.NewInt(1)}},
			observed: [][]types.Datum{{types.NewInt(1)}, {types.NewNull(types.KindInt)}},
		},
		{
			name: "null position differs with order by",
			sql:  "SELECT x FROM t ORDER BY x",
			cols: icol,
			baseline: [][]types.Datum{{types.NewNull(types.KindInt)}, {types.NewInt(1)}},
			observed: [][]types.Datum{{types.NewInt(1)}, {types.NewNull(types.KindInt)}},
			wantKind: odbc.DivCell, wantRow: 0, wantCol: 0,
		},
		{
			name: "null against value is a difference",
			sql:  "SELECT x FROM t",
			cols: icol,
			baseline: [][]types.Datum{{types.NewInt(7)}},
			observed: [][]types.Datum{{types.NewNull(types.KindInt)}},
			wantKind: odbc.DivCell, wantRow: 0, wantCol: 0,
		},
		{
			name: "row order differs without order by",
			sql:  "SELECT x FROM t",
			cols: icol,
			baseline: [][]types.Datum{{types.NewInt(1)}, {types.NewInt(2)}},
			observed: [][]types.Datum{{types.NewInt(2)}, {types.NewInt(1)}},
		},
		{
			name: "row order differs with order by",
			sql:  "SELECT x FROM t ORDER BY x",
			cols: icol,
			baseline: [][]types.Datum{{types.NewInt(1)}, {types.NewInt(2)}},
			observed: [][]types.Datum{{types.NewInt(2)}, {types.NewInt(1)}},
			wantKind: odbc.DivCell, wantRow: 0, wantCol: 0,
		},
		{
			name: "order by inside a subquery keeps set semantics",
			sql:  "SELECT x FROM (SELECT x FROM t ORDER BY x) AS s",
			cols: icol,
			baseline: [][]types.Datum{{types.NewInt(1)}, {types.NewInt(2)}},
			observed: [][]types.Datum{{types.NewInt(2)}, {types.NewInt(1)}},
		},
		{
			name: "row count mismatch",
			sql:  "SELECT x FROM t",
			cols: icol,
			baseline: [][]types.Datum{{types.NewInt(1)}, {types.NewInt(2)}},
			observed: [][]types.Datum{{types.NewInt(1)}},
			wantKind: odbc.DivRowCount, wantRow: -1, wantCol: -1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			df := &Differ{Tol: c.tol}
			d := df.Compare(c.sql, mkRes(c.cols, c.baseline), mkRes(c.cols, c.observed))
			if c.wantKind == "" {
				if d != nil {
					t.Fatalf("want equivalent, got %v", d)
				}
				return
			}
			if d == nil {
				t.Fatalf("want %s divergence, got equivalent", c.wantKind)
			}
			if d.Kind != c.wantKind || d.Row != c.wantRow || d.Col != c.wantCol {
				t.Fatalf("want %s at row %d col %d, got %+v", c.wantKind, c.wantRow, c.wantCol, d)
			}
		})
	}
}

func TestDifferColumnMetaAcrossProfiles(t *testing.T) {
	df := &Differ{}
	rows := [][]types.Datum{{types.NewInt(1)}}
	// Name case and declared lengths vary across target profiles without
	// changing values: not a divergence.
	b := mkRes([]tdf.ColumnMeta{{Name: "TOTAL", Type: types.VarChar(20)}},
		[][]types.Datum{{types.NewString("x")}})
	o := mkRes([]tdf.ColumnMeta{{Name: "total", Type: types.VarChar(64)}},
		[][]types.Datum{{types.NewString("x")}})
	if d := df.Compare("SELECT total FROM t", b, o); d != nil {
		t.Fatalf("case/length meta drift flagged: %v", d)
	}
	// A changed kind is a real divergence.
	b = mkRes([]tdf.ColumnMeta{intCol("x")}, rows)
	o = mkRes([]tdf.ColumnMeta{{Name: "x", Type: types.BigInt}}, rows)
	if d := df.Compare("SELECT x FROM t", b, o); d == nil || d.Kind != odbc.DivColumnMeta {
		t.Fatalf("kind drift not flagged: %v", d)
	}
}

func TestDifferAffectedCounts(t *testing.T) {
	df := &Differ{}
	b := []*cwp.StatementResult{{Command: "UPDATE", Affected: 3}}
	o := []*cwp.StatementResult{{Command: "UPDATE", Affected: 2}}
	if d := df.Compare("UPDATE t SET x = 1", b, o); d == nil || d.Kind != odbc.DivAffected {
		t.Fatalf("affected drift not flagged: %v", d)
	}
}

func TestHasTopLevelOrderBy(t *testing.T) {
	cases := []struct {
		sql  string
		want bool
	}{
		{"SELECT x FROM t ORDER BY x", true},
		{"select x from t order\n by x desc", true},
		{"SELECT x FROM t", false},
		{"SELECT x FROM (SELECT y FROM u ORDER BY y) AS s", false},
		{"SELECT 'ORDER BY' FROM t", false},
		{"SELECT x FROM t -- ORDER BY x\n", false},
		{"SELECT x FROM t /* ORDER BY x */", false},
		{"SELECT x FROM \"ORDER BY\"", false},
		{"SELECT x FROM (SELECT y FROM u) AS s ORDER BY x", true},
		{"SELECT RANK() OVER (ORDER BY sal) FROM emp", false},
	}
	for _, c := range cases {
		if got := hasTopLevelOrderBy(c.sql); got != c.want {
			t.Errorf("hasTopLevelOrderBy(%q) = %v, want %v", c.sql, got, c.want)
		}
	}
}

// TestDifferAcrossCloudTargets drives the differ end-to-end on live engine
// pairs for every modeled cloud target: identical data compares clean under
// tolerances, and a perturbed candidate is pinpointed to the exact cell.
func TestDifferAcrossCloudTargets(t *testing.T) {
	for _, prof := range dialect.CloudTargets() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			engines := make([]*engine.Engine, 2)
			drivers := make([]odbc.Driver, 2)
			for i := range engines {
				engines[i] = engine.New(prof)
				s := engines[i].NewSession()
				for _, sql := range []string{
					"CREATE TABLE m (a INT, b VARCHAR(8), c DECIMAL(10,2), d DATE)",
					"INSERT INTO m VALUES (1, 'alpha', 10.50, DATE '2026-01-15')",
					"INSERT INTO m VALUES (2, 'beta', 20.25, DATE '2026-02-20')",
					"INSERT INTO m VALUES (3, NULL, NULL, NULL)",
				} {
					if _, err := s.ExecSQL(sql); err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
				}
				drivers[i] = &odbc.LocalDriver{Engine: engines[i]}
			}
			df := &Differ{Tol: Tolerance{FloatEps: 1e-9, TrimCharPad: true}}
			rd := &odbc.ReplicatedDriver{Replicas: drivers, Compare: df.Compare}
			ex, err := rd.Connect()
			if err != nil {
				t.Fatal(err)
			}
			defer ex.Close()
			ds := ex.(odbc.DivergenceSource)
			for _, q := range []string{
				"SELECT a, b, c, d FROM m",
				"SELECT a, b FROM m ORDER BY a",
				"SELECT COUNT(*), SUM(c) FROM m",
			} {
				if _, err := ex.ExecContext(context.Background(), q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if divs := ds.TakeDivergences(); len(divs) != 0 {
					t.Fatalf("identical engines diverged on %q: %v", q, divs)
				}
			}
			// Perturb one cell on the candidate only.
			if _, err := engines[1].NewSession().ExecSQL("UPDATE m SET c = 20.26 WHERE a = 2"); err != nil {
				t.Fatal(err)
			}
			if _, err := ex.ExecContext(context.Background(), "SELECT a, c FROM m ORDER BY a"); err != nil {
				t.Fatal(err)
			}
			divs := ds.TakeDivergences()
			if len(divs) != 1 {
				t.Fatalf("want 1 divergence, got %v", divs)
			}
			d := divs[0]
			if d.Kind != odbc.DivCell || d.Row != 1 || d.Col != 1 || d.Replica != 1 {
				t.Fatalf("perturbed cell not pinpointed: %+v", d)
			}
		})
	}
}
