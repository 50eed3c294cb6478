package odbc

import (
	"context"
	"net"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/wire/cwp"
)

func loadedEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng := engine.New(dialect.TeradataProfile())
	s := eng.NewSession()
	for _, sql := range []string{
		"CREATE TABLE t (a INT, b VARCHAR(5))",
		"INSERT INTO t VALUES (1, 'x'), (2, 'y')",
	} {
		if _, err := s.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// Both drivers must behave identically for the same requests.
func TestDriversEquivalent(t *testing.T) {
	eng := loadedEngine(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = cwp.Serve(ln, eng) }()

	drivers := []Driver{
		&LocalDriver{Engine: eng, User: "u"},
		&NetworkDriver{Addr: ln.Addr().String(), User: "u", Password: "p"},
	}
	for i, d := range drivers {
		ex, err := d.Connect()
		if err != nil {
			t.Fatalf("driver %d: %v", i, err)
		}
		results, err := ex.ExecContext(context.Background(), "SELECT a, b FROM t ORDER BY a; SELECT COUNT(*) FROM t;")
		if err != nil {
			t.Fatalf("driver %d: %v", i, err)
		}
		if len(results) != 2 {
			t.Fatalf("driver %d: results = %d", i, len(results))
		}
		rows := results[0].Rows()
		if len(rows) != 2 || rows[0][0].I != 1 || rows[1][1].S != "y" {
			t.Fatalf("driver %d: rows = %v", i, rows)
		}
		if results[1].Rows()[0][0].I != 2 {
			t.Fatalf("driver %d: count = %v", i, results[1].Rows()[0][0])
		}
		if err := ex.Close(); err != nil {
			t.Fatalf("driver %d close: %v", i, err)
		}
	}
}

func TestLocalDriverBatches(t *testing.T) {
	eng := loadedEngine(t)
	ex, err := (&LocalDriver{Engine: eng}).Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	results, err := ex.ExecContext(context.Background(), "SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(results[0].Batches) == 0 {
		t.Fatal("no batches for non-empty result")
	}
	if results[0].Cols[0].Name == "" {
		t.Fatal("column metadata missing")
	}
}

func TestLocalDriverErrors(t *testing.T) {
	eng := loadedEngine(t)
	ex, _ := (&LocalDriver{Engine: eng}).Connect()
	defer ex.Close()
	if _, err := ex.ExecContext(context.Background(), "SELECT nope FROM t"); err == nil {
		t.Error("error not propagated")
	}
}

func TestNetworkDriverConnectFailure(t *testing.T) {
	d := &NetworkDriver{Addr: "127.0.0.1:1", User: "u", Password: "p"}
	if _, err := d.Connect(); err == nil {
		t.Error("connect to closed port succeeded")
	}
}
