package hyperq

import (
	"errors"
	"reflect"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/odbc"
	"hyperq/internal/types"
	"hyperq/internal/wire/tdp"
	"hyperq/internal/workload/customer"
	"hyperq/internal/workload/tpch"
)

// A session without a frontend answers through the same converter as the
// wire: on every cloud target, each of TPC-H's 22 queries and 50 statements
// of each customer workload gives a local session's Run exactly what a tdp
// client decodes from a wire gateway over an identical backend — the same
// columns as the statement info carries them, rows, activity counts and
// command names, or the same failure.
func TestLocalRunMatchesWire(t *testing.T) {
	if testing.Short() {
		t.Skip("runs TPC-H and two customer workloads on four targets, twice")
	}
	var requests []string
	for _, qn := range tpch.QueryNumbers() {
		requests = append(requests, tpch.Queries[qn])
	}
	for _, spec := range []customer.Spec{customer.Workload1(), customer.Workload2()} {
		spec.Distinct, spec.Total = 50, 50
		for _, q := range customer.Generate(spec) {
			requests = append(requests, q.SQL)
		}
	}
	backend := func(t *testing.T, target *dialect.Profile) *engine.Engine {
		eng := engine.New(target)
		s := eng.NewSession()
		if err := tpch.SetupEngine(s, 0.001); err != nil {
			t.Fatal(err)
		}
		for _, ddl := range customer.SchemaDDL {
			if _, err := s.ExecSQL(ddl); err != nil {
				t.Fatal(err)
			}
		}
		return eng
	}
	for _, target := range dialect.CloudTargets() {
		t.Run(target.Name, func(t *testing.T) {
			eng := backend(t, target)
			g, err := New(Config{Target: target, Driver: &odbc.LocalDriver{Engine: eng}, Catalog: eng.Catalog().Clone()})
			if err != nil {
				t.Fatal(err)
			}
			local, err := g.NewLocalSession("app")
			if err != nil {
				t.Fatal(err)
			}
			defer local.Close()
			st := newStreamStack(t, target, backend(t, target), Config{}, tdp.Options{})
			c, err := tdp.Dial(st.addr, "app", "pw")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rows, failed := 0, 0
			for _, sql := range append(append([]string(nil), customer.GatewaySetup...), requests...) {
				got, lerr := local.Run(sql)
				want, werr := c.Request(sql)
				var re *RequestError
				var wre *tdp.RequestError
				if lerr != nil || werr != nil {
					if !errors.As(lerr, &re) || !errors.As(werr, &wre) || re.Code != wre.Code || re.Message != wre.Message {
						t.Fatalf("%q: local %v, wire %v", sql, lerr, werr)
					}
					failed++
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("%q: local %d statements, wire %d", sql, len(got), len(want))
				}
				for i, w := range want {
					l := got[i]
					if !reflect.DeepEqual(wireCols(l.Cols), w.Cols) || !reflect.DeepEqual(l.Rows, w.Rows) ||
						l.Activity != w.Activity || l.Command != w.Command {
						t.Fatalf("%q statement %d:\nlocal %+v\nwire  %+v", sql, i, *l, *w)
					}
					rows += len(w.Rows)
				}
			}
			t.Logf("%d requests, %d failed alike, %d rows equal", len(requests), failed, rows)
			if rows == 0 || failed > len(requests)/4 {
				t.Fatalf("%d rows compared, %d of %d requests failed", rows, failed, len(requests))
			}
		})
	}
}

// wireCols is cols as a tdp client reads them from the statement info, which
// carries no DECIMAL precision (the client takes 18).
func wireCols(cols []tdp.ColumnDef) []tdp.ColumnDef {
	if cols == nil {
		return nil
	}
	out := make([]tdp.ColumnDef, len(cols))
	for i, c := range cols {
		out[i] = c
		if c.Type.Kind == types.KindDecimal {
			out[i].Type.Precision = 18
		} else {
			out[i].Type.Precision = 0
		}
	}
	return out
}
