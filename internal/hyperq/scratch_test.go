package hyperq

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hyperq/internal/catalog"
	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/odbc"
	"hyperq/internal/wire/cwp"
	"hyperq/internal/workload/customer"
	"hyperq/internal/workload/tpch"
)

// sqlRecorder is a backend driver that records every SQL-B text its sessions
// execute.
type sqlRecorder struct {
	inner odbc.Driver
	sent  []string
}

func (d *sqlRecorder) Connect() (odbc.Executor, error) {
	ex, err := d.inner.Connect()
	if err != nil {
		return nil, err
	}
	return &recordingExecutor{ex, d}, nil
}

type recordingExecutor struct {
	odbc.Executor
	d *sqlRecorder
}

func (e *recordingExecutor) ExecContext(ctx context.Context, sql string) ([]*cwp.StatementResult, error) {
	e.d.sent = append(e.d.sent, sql)
	return e.Executor.ExecContext(ctx, sql)
}

// The binder's scopes and the serializer's writer are reused from one
// statement to the next, so nothing that outlives a statement may point into
// them: a cached plan's columns, the catalog mirror of a CREATE TABLE, the
// plan EXPLAIN prints. One gateway serves the same requests in two orders,
// each in a session of its own — TPC-H's 22 queries, 50 statements of each
// customer workload, an EXPLAIN, and a volatile table created and then
// selected from — with the translation cache on, so the second order is
// answered partly from plans the first one stored. Every request must send
// the same SQL-B and answer with the same columns (and, for EXPLAIN, the
// same rows) in both orders, and the volatile table's catalog entry must
// still equal the copy taken when it was created.
func TestReusedTranslationStateRetainsNothing(t *testing.T) {
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
	const create = "CREATE VOLATILE TABLE scratch_vt (k INTEGER, label VARCHAR(20)) ON COMMIT PRESERVE ROWS"
	requests = append(requests,
		"EXPLAIN SEL o_orderkey, o_totalprice FROM orders WHERE o_orderkey < 10 ORDER BY 1",
		create,
		"SEL k, label FROM scratch_vt WHERE k = 1")

	target := dialect.CloudA()
	eng := engine.New(target)
	be := eng.NewSession()
	if err := tpch.SetupEngine(be, 0.001); err != nil {
		t.Fatal(err)
	}
	for _, ddl := range customer.SchemaDDL {
		if _, err := be.ExecSQL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	rec := &sqlRecorder{inner: &odbc.LocalDriver{Engine: eng}}
	g, err := New(Config{Target: target, Driver: rec, Catalog: eng.Catalog().Clone()})
	if err != nil {
		t.Fatal(err)
	}
	setup, err := g.NewLocalSession("setup")
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range customer.GatewaySetup {
		if _, err := setup.Run(sql); err != nil {
			t.Fatal(err)
		}
	}
	setup.Close()

	// run answers the requests in the given order in a new session and
	// returns, per request, what it sent and answered.
	run := func(order []int) []string {
		s, err := g.NewLocalSession("app")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		out := make([]string, len(requests))
		var mirror *catalog.Table
		var mirrorCopy catalog.Table
		for _, i := range order {
			rec.sent = rec.sent[:0]
			res, err := s.Run(requests[i])
			var b strings.Builder
			fmt.Fprintf(&b, "sent %q\nerr %v\n", rec.sent, err)
			for _, r := range res {
				fmt.Fprintf(&b, "cols %v command %s\n", r.Cols, r.Command)
				if r.Command == "EXPLAIN" {
					fmt.Fprintf(&b, "rows %v\n", r.Rows)
				}
			}
			out[i] = b.String()
			if requests[i] == create {
				var ok bool
				if mirror, ok = s.sessionCat.Table("scratch_vt"); !ok {
					t.Fatal("CREATE VOLATILE TABLE left no catalog mirror")
				}
				mirrorCopy = *mirror.Clone()
			}
		}
		if !reflect.DeepEqual(*mirror, mirrorCopy) {
			t.Errorf("the volatile table's catalog entry changed after its CREATE:\nnow  %+v\nthen %+v", *mirror, mirrorCopy)
		}
		return out
	}
	forward := make([]int, len(requests))
	for i := range forward {
		forward[i] = i
	}
	shuffled := slices.Clone(forward)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	// The volatile table is created before it is selected from.
	c, s := slices.Index(shuffled, len(requests)-2), slices.Index(shuffled, len(requests)-1)
	if c > s {
		shuffled[c], shuffled[s] = shuffled[s], shuffled[c]
	}

	first, second := run(forward), run(shuffled)
	translated := 0
	for i := range requests {
		if first[i] != second[i] {
			t.Errorf("request %q differs between orders:\nfirst:  %s\nsecond: %s", requests[i], first[i], second[i])
		}
		if !strings.HasPrefix(first[i], "sent []") {
			translated++
		}
	}
	if translated < len(requests)/2 {
		t.Fatalf("only %d of %d requests reached the backend", translated, len(requests))
	}
}
