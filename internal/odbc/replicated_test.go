package odbc

import (
	"context"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
)

// replicaSetup builds N independent engines with the same schema.
func replicaSetup(t *testing.T, n int) ([]*engine.Engine, *ReplicatedDriver) {
	t.Helper()
	engines := make([]*engine.Engine, n)
	drivers := make([]Driver, n)
	for i := range engines {
		engines[i] = engine.New(dialect.CloudA())
		s := engines[i].NewSession()
		if _, err := s.ExecSQL("CREATE TABLE r (x INT)"); err != nil {
			t.Fatal(err)
		}
		drivers[i] = &LocalDriver{Engine: engines[i]}
	}
	return engines, &ReplicatedDriver{Replicas: drivers}
}

func TestReplicatedWritesFanOut(t *testing.T) {
	engines, d := replicaSetup(t, 3)
	ex, err := d.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if _, err := ex.ExecContext(context.Background(), "INSERT INTO r (x) VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	for i, eng := range engines {
		n, err := eng.NewSession().RowCount("r")
		if err != nil || n != 2 {
			t.Fatalf("replica %d has %d rows (%v)", i, n, err)
		}
	}
}

func TestReplicatedMixedRequestIsWrite(t *testing.T) {
	engines, d := replicaSetup(t, 2)
	ex, _ := d.Connect()
	defer ex.Close()
	// A multi-statement request containing DML fans out entirely.
	if _, err := ex.ExecContext(context.Background(), "INSERT INTO r (x) VALUES (1); SELECT COUNT(*) FROM r;"); err != nil {
		t.Fatal(err)
	}
	for i, eng := range engines {
		n, _ := eng.NewSession().RowCount("r")
		if n != 1 {
			t.Fatalf("replica %d missed the write (%d rows)", i, n)
		}
	}
}

func TestReplicatedIsReadOnlyClassification(t *testing.T) {
	cases := map[string]bool{
		"SELECT 1":                          true,
		"SELECT a FROM t; SELECT b FROM u;": true,
		"INSERT INTO t (a) VALUES (1)":      false,
		"SELECT 1; DELETE FROM t x;":        false,
		"CREATE TABLE t (a INT)":            false,
		"not sql at all":                    false,
	}
	for sql, want := range cases {
		if got := isReadOnly(sql); got != want {
			t.Errorf("isReadOnly(%q) = %v, want %v", sql, got, want)
		}
	}
}

func TestReplicatedNeedsReplicas(t *testing.T) {
	d := &ReplicatedDriver{}
	if _, err := d.Connect(); err == nil {
		t.Error("empty replica set accepted")
	}
}
