package pool

import (
	"context"
	"testing"

	"hyperq/internal/israce"
	"hyperq/internal/odbc"
	"hyperq/internal/wire/cwp"
)

// staticDriver's sessions answer every request with the same result and
// allocate nothing doing it.
type staticDriver struct{}

func (staticDriver) Connect() (odbc.Executor, error) { return staticExec{}, nil }

var staticResult = []*cwp.StatementResult{{Command: "SELECT"}}

type staticExec struct{}

func (staticExec) ExecContext(context.Context, string) ([]*cwp.StatementResult, error) {
	return staticResult, nil
}

func (staticExec) Close() error { return nil }

// An uncontended statement lease — an idle connection handed out at once —
// arms no AcquireTimeout timer: the lease costs no allocation at all.
func TestUncontendedLeaseAllocatesNothing(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	p, _ := newTestPool(t, Config{Driver: staticDriver{}, Size: 1})
	sc := p.Session()
	ctx := context.Background()
	if _, err := sc.ExecContext(ctx, "SELECT 1"); err != nil { // dials the connection
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sc.ExecContext(ctx, "SELECT 1"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("uncontended ExecContext: %v allocations, want 0 (no timer context)", allocs)
	}
}
