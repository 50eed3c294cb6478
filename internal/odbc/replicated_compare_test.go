package odbc_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/odbc"
	"hyperq/internal/odbc/faultdriver"
)

// compareReplicas builds n same-schema replicas (empty table r) behind a
// ReplicatedDriver with CompareReads on and returns the engines for
// per-replica perturbation.
func compareReplicas(t *testing.T, n int) ([]*engine.Engine, *odbc.ReplicatedDriver) {
	t.Helper()
	engines := make([]*engine.Engine, n)
	drivers := make([]odbc.Driver, n)
	for i := range engines {
		engines[i] = engine.New(dialect.CloudA())
		if _, err := engines[i].NewSession().ExecSQL("CREATE TABLE r (x INT)"); err != nil {
			t.Fatal(err)
		}
		drivers[i] = &odbc.LocalDriver{Engine: engines[i]}
	}
	d := &odbc.ReplicatedDriver{Replicas: drivers}
	d.CompareReads = true
	return engines, d
}

func takeDivs(t *testing.T, ex odbc.Executor) []*odbc.Divergence {
	t.Helper()
	ds, ok := ex.(odbc.DivergenceSource)
	if !ok {
		t.Fatalf("%T does not implement DivergenceSource", ex)
	}
	return ds.TakeDivergences()
}

func TestCompareReadsCleanReplicasReportNothing(t *testing.T) {
	_, d := compareReplicas(t, 2)
	ex, err := d.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if _, err := ex.ExecContext(context.Background(), "INSERT INTO r (x) VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExecContext(context.Background(), "SELECT x FROM r ORDER BY x"); err != nil {
		t.Fatal(err)
	}
	if divs := takeDivs(t, ex); len(divs) != 0 {
		t.Fatalf("identical replicas produced divergences: %v", divs)
	}
}

func TestCompareReadsPinpointsDifferingCell(t *testing.T) {
	engines, d := compareReplicas(t, 2)
	ex, err := d.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if _, err := ex.ExecContext(context.Background(), "INSERT INTO r (x) VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	takeDivs(t, ex)
	// Perturb replica 1 behind the driver's back: row with x=2 becomes 99.
	if _, err := engines[1].NewSession().ExecSQL("UPDATE r SET x = 99 WHERE x = 2"); err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExecContext(context.Background(), "SELECT x FROM r ORDER BY x")
	if err != nil {
		t.Fatal(err)
	}
	// The baseline (replica 0) answer is returned untouched.
	if rows := res[0].Rows(); len(rows) != 3 || rows[1][0].I != 2 {
		t.Fatalf("baseline answer not returned: %v", rows)
	}
	divs := takeDivs(t, ex)
	if len(divs) != 1 {
		t.Fatalf("want 1 divergence, got %d: %v", len(divs), divs)
	}
	dv := divs[0]
	if dv.Kind != odbc.DivCell || dv.Replica != 1 || dv.Stmt != 0 || dv.Col != 0 {
		t.Fatalf("wrong location: %+v", dv)
	}
	// ORDER BY x sorts 99 last on replica 1, so the first differing row under
	// strict ordered comparison is row 1 (2 vs 3).
	if dv.Row != 1 || dv.Baseline != "2" || dv.Observed != "3" {
		t.Fatalf("wrong cell detail: %+v", dv)
	}
	if dv.Fingerprint == "" || dv.SQL == "" {
		t.Fatalf("missing fingerprint/sql: %+v", dv)
	}
	// Divergences report; they must not poison the session.
	if _, err := ex.ExecContext(context.Background(), "SELECT COUNT(*) FROM r"); err != nil {
		t.Fatalf("session poisoned after read divergence: %v", err)
	}
}

func TestCompareReadsRowCountAndErrorDivergences(t *testing.T) {
	engines, d := compareReplicas(t, 2)
	var seen []*odbc.Divergence
	d.OnDivergence = func(dv *odbc.Divergence) { seen = append(seen, dv) }
	ex, err := d.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if _, err := ex.ExecContext(context.Background(), "INSERT INTO r (x) VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := engines[1].NewSession().ExecSQL("DELETE FROM r WHERE x = 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExecContext(context.Background(), "SELECT x FROM r"); err != nil {
		t.Fatal(err)
	}
	divs := takeDivs(t, ex)
	if len(divs) != 1 || divs[0].Kind != odbc.DivRowCount {
		t.Fatalf("want row-count divergence, got %v", divs)
	}
	if len(seen) != 1 || seen[0] != divs[0] {
		t.Fatalf("OnDivergence not invoked with the record: %v", seen)
	}
	// A table present on the baseline only: replica 1 errors, baseline
	// succeeds -> error divergence, baseline result still served.
	if _, err := engines[0].NewSession().ExecSQL("CREATE TABLE only0 (y INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExecContext(context.Background(), "SELECT y FROM only0"); err != nil {
		t.Fatal(err)
	}
	divs = takeDivs(t, ex)
	if len(divs) != 1 || divs[0].Kind != odbc.DivError || divs[0].Baseline != "ok" {
		t.Fatalf("want error divergence with ok baseline, got %v", divs)
	}
}

func TestCompareWritesDiffAffectedCounts(t *testing.T) {
	engines, d := compareReplicas(t, 2)
	ex, err := d.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if _, err := ex.ExecContext(context.Background(), "INSERT INTO r (x) VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	takeDivs(t, ex)
	if _, err := engines[1].NewSession().ExecSQL("DELETE FROM r WHERE x = 3"); err != nil {
		t.Fatal(err)
	}
	// The fanned-out UPDATE touches 3 rows on replica 0 but 2 on replica 1.
	if _, err := ex.ExecContext(context.Background(), "UPDATE r SET x = x + 10"); err != nil {
		t.Fatal(err)
	}
	divs := takeDivs(t, ex)
	if len(divs) != 1 || divs[0].Kind != odbc.DivAffected || divs[0].Replica != 1 {
		t.Fatalf("want affected divergence on replica 1, got %v", divs)
	}
	if !strings.Contains(divs[0].Baseline, "3") || !strings.Contains(divs[0].Observed, "2") {
		t.Fatalf("wrong counts: %+v", divs[0])
	}
}

func TestPartialWriteCarriesDivergenceDetail(t *testing.T) {
	engines, _ := compareReplicas(t, 2)
	fd := faultdriver.New(&odbc.LocalDriver{Engine: engines[1]})
	d := &odbc.ReplicatedDriver{Replicas: []odbc.Driver{&odbc.LocalDriver{Engine: engines[0]}, fd}}
	ex, err := d.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	// Replica 1 rejects the next exec with a non-connection SQL error: the
	// write lands on replica 0 only.
	fd.QueueExecErrors(errors.New("disk quota exceeded"))
	_, err = ex.ExecContext(context.Background(), "INSERT INTO r (x) VALUES (1)")
	if !errors.Is(err, odbc.ErrReplicaDivergent) {
		t.Fatalf("want ErrReplicaDivergent, got %v", err)
	}
	if !strings.Contains(err.Error(), "write-partial") || !strings.Contains(err.Error(), "replica 1") {
		t.Fatalf("poisoning error lacks divergence detail: %v", err)
	}
	divs := takeDivs(t, ex)
	if len(divs) != 1 || divs[0].Kind != odbc.DivWritePartial || divs[0].Replica != 1 {
		t.Fatalf("want write-partial record for replica 1, got %v", divs)
	}
	if !strings.Contains(divs[0].Observed, "disk quota exceeded") {
		t.Fatalf("record lacks the failing error: %+v", divs[0])
	}
}

func TestCompareReadsBaselineDeathPromotesNextReplica(t *testing.T) {
	engines, _ := compareReplicas(t, 3)
	fd0 := faultdriver.New(&odbc.LocalDriver{Engine: engines[0]})
	d := &odbc.ReplicatedDriver{
		Replicas: []odbc.Driver{fd0, &odbc.LocalDriver{Engine: engines[1]}, &odbc.LocalDriver{Engine: engines[2]}},
		Metrics:  &odbc.ResilienceMetrics{},
	}
	d.CompareReads = true
	ex, err := d.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if _, err := ex.ExecContext(context.Background(), "INSERT INTO r (x) VALUES (5)"); err != nil {
		t.Fatal(err)
	}
	takeDivs(t, ex)
	// Kill the baseline replica's session: the read must fail over to
	// replica 1 as the new baseline and still compare against replica 2.
	fd0.DropActiveSessions()
	res, err := ex.ExecContext(context.Background(), "SELECT x FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if rows := res[0].Rows(); len(rows) != 1 || rows[0][0].I != 5 {
		t.Fatalf("failover answer wrong: %v", rows)
	}
	if divs := takeDivs(t, ex); len(divs) != 0 {
		t.Fatalf("infrastructure loss reported as divergence: %v", divs)
	}
	if got := d.Metrics.ReplicaQuarantined(); got != 1 {
		t.Fatalf("want 1 quarantine, got %d", got)
	}
}
