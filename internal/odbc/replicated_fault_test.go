package odbc_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"hyperq/internal/engine"
	"hyperq/internal/odbc"
	"hyperq/internal/odbc/faultdriver"
	"hyperq/internal/wire/cwp"
)

// replicaSet builds n engine-backed replicas, each behind its own fault
// driver, fronted by one ReplicatedDriver.
func replicaSet(t *testing.T, n int) ([]*engine.Engine, []*faultdriver.Driver, *odbc.ReplicatedDriver, *odbc.ResilienceMetrics) {
	t.Helper()
	engines := make([]*engine.Engine, n)
	fds := make([]*faultdriver.Driver, n)
	drivers := make([]odbc.Driver, n)
	for i := range engines {
		engines[i] = resilienceEngine(t)
		fds[i] = faultdriver.New(&odbc.LocalDriver{Engine: engines[i], User: "u"})
		drivers[i] = fds[i]
	}
	met := &odbc.ResilienceMetrics{}
	return engines, fds, &odbc.ReplicatedDriver{Replicas: drivers, Metrics: met}, met
}

func replicaCount(t *testing.T, eng *engine.Engine) int64 {
	t.Helper()
	res, err := eng.NewSession().ExecSQL("SELECT COUNT(*) FROM rt")
	if err != nil {
		t.Fatal(err)
	}
	return res[0].Rows[0][0].I
}

// A replica whose connection dies is quarantined out of the read rotation;
// reads fail over and keep succeeding on the survivors.
func TestReplicatedReadQuarantineFailover(t *testing.T) {
	_, fds, rd, met := replicaSet(t, 3)
	ex, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	// Kill replica 0's backend session mid-flight.
	fds[0].DropActiveSessions()
	for i := 0; i < 6; i++ {
		res, err := ex.ExecContext(context.Background(), "SELECT COUNT(*) FROM rt")
		if err != nil {
			t.Fatalf("read %d after replica loss: %v", i, err)
		}
		if res[0].Rows()[0][0].I != 3 {
			t.Fatalf("read %d: count = %v", i, res[0].Rows()[0][0])
		}
	}
	if met.ReplicaQuarantined() != 1 {
		t.Errorf("ReplicaQuarantined = %d, want 1", met.ReplicaQuarantined())
	}
	// Writes keep working, fanned out to the surviving replicas only.
	if _, err := ex.ExecContext(context.Background(), "INSERT INTO rt VALUES (4)"); err != nil {
		t.Fatalf("write after replica loss: %v", err)
	}
}

// A SQL error on a read surfaces immediately — replicas hold identical
// contents, so failing over would just repeat the same error.
func TestReplicatedReadSQLErrorNoFailover(t *testing.T) {
	_, fds, rd, _ := replicaSet(t, 2)
	ex, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	before := fds[0].Execs() + fds[1].Execs()
	if _, err := ex.ExecContext(context.Background(), "SELECT nope FROM rt"); err == nil {
		t.Fatal("SQL error not surfaced")
	}
	if got := fds[0].Execs() + fds[1].Execs() - before; got != 1 {
		t.Errorf("exec attempts = %d, want 1 (no failover on SQL errors)", got)
	}
}

// A write that lands on some replicas but fails on others leaves the
// contents diverged: the executor is poisoned and every subsequent request
// fails with ErrReplicaDivergent instead of serving inconsistent reads.
func TestReplicatedPartialWriteMarksDivergent(t *testing.T) {
	engines, fds, rd, _ := replicaSet(t, 2)
	ex, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	// Replica 1 rejects the write with a permanent backend error while
	// replica 0 applies it.
	fds[1].QueueExecErrors(&cwp.BackendError{Code: 2644, Message: "no more room in database"})
	_, err = ex.ExecContext(context.Background(), "INSERT INTO rt VALUES (4)")
	if !errors.Is(err, odbc.ErrReplicaDivergent) {
		t.Fatalf("partial write: err = %v, want ErrReplicaDivergent", err)
	}
	if a, b := replicaCount(t, engines[0]), replicaCount(t, engines[1]); a == b {
		t.Fatalf("test premise broken: replica contents did not diverge (%d == %d)", a, b)
	}
	// Poisoned: even a plain read now refuses.
	if _, err := ex.ExecContext(context.Background(), "SELECT COUNT(*) FROM rt"); !errors.Is(err, odbc.ErrReplicaDivergent) {
		t.Fatalf("read after divergence: err = %v, want ErrReplicaDivergent", err)
	}
}

// closeFailExec is an Executor whose Close fails but must still be called.
type closeFailExec struct {
	closed *int
	fail   bool
}

func (e *closeFailExec) ExecContext(context.Context, string) ([]*cwp.StatementResult, error) {
	return nil, nil
}
func (e *closeFailExec) Close() error {
	*e.closed++
	if e.fail {
		return errors.New("flush failed")
	}
	return nil
}

type staticDriver struct{ ex odbc.Executor }

func (d staticDriver) Connect() (odbc.Executor, error) { return d.ex, nil }

// Close must close every replica even when one of them fails, and report
// the aggregate.
func TestReplicatedCloseClosesAllAndAggregates(t *testing.T) {
	var closed int
	rd := &odbc.ReplicatedDriver{Replicas: []odbc.Driver{
		staticDriver{&closeFailExec{closed: &closed, fail: true}},
		staticDriver{&closeFailExec{closed: &closed}},
		staticDriver{&closeFailExec{closed: &closed, fail: true}},
	}}
	ex, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	err = ex.Close()
	if err == nil {
		t.Fatal("aggregate close error lost")
	}
	if closed != 3 {
		t.Errorf("closed %d replicas, want 3 (failure mid-slice must not leak sessions)", closed)
	}
	if n := strings.Count(err.Error(), "flush failed"); n != 2 {
		t.Errorf("aggregate error reports %d failures, want 2: %v", n, err)
	}
}

// With every replica down, reads report the outage rather than spinning.
func TestReplicatedAllReplicasDown(t *testing.T) {
	_, fds, rd, met := replicaSet(t, 2)
	ex, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	fds[0].DropActiveSessions()
	fds[1].DropActiveSessions()
	_, err = ex.ExecContext(context.Background(), "SELECT COUNT(*) FROM rt")
	if err == nil || !strings.Contains(err.Error(), "all replicas unavailable") {
		t.Fatalf("err = %v, want all-replicas-unavailable", err)
	}
	if met.ReplicaQuarantined() != 2 {
		t.Errorf("ReplicaQuarantined = %d, want 2", met.ReplicaQuarantined())
	}
}
