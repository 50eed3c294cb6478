package layers

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"hyperq/internal/odbc"
	"hyperq/internal/odbc/pool"
	"hyperq/internal/tdf"
	"hyperq/internal/types"
	"hyperq/internal/wire/cwp"
	"hyperq/perf/canned"
)

// oneRowSQL is the SQL-B text of the one-row reply the round-trip timers
// use; oneRowTable holds nothing else.
const oneRowSQL = "SELECT 1"

func oneRowTable() (*canned.Table, error) {
	cols := []tdf.ColumnMeta{{Name: "c", Type: types.Int}}
	t := canned.NewTable()
	err := t.Record(oneRowSQL, []*cwp.StatementResult{{
		Cols:    cols,
		Batches: []*tdf.Batch{{Cols: cols, Rows: [][]types.Datum{{types.NewInt(1)}}}},
		Command: "SELECT",
	}})
	return t, err
}

// OdbcResilient times what odbc.ResilientDriver adds to a request: its
// ExecContext over the canned executor minus the bare canned ExecContext.
func OdbcResilient(ctx context.Context, budget time.Duration) ([]Metric, error) {
	table, err := oneRowTable()
	if err != nil {
		return nil, err
	}
	driver := &canned.Driver{Table: table}
	bare, err := driver.Connect()
	if err != nil {
		return nil, err
	}
	wrapped, err := (&odbc.ResilientDriver{Inner: driver, Timeout: 30 * time.Second}).ConnectContext(ctx)
	if err != nil {
		return nil, err
	}
	defer wrapped.Close()
	exec := func(ex odbc.Executor) cost {
		return measure(budget/2, 1, func() {
			if _, err := ex.ExecContext(ctx, oneRowSQL); err != nil {
				panic(err)
			}
		})
	}
	b, w := exec(bare), exec(wrapped)
	return []Metric{
		{"odbc.resilient.tax_ns_per_req", w.ns - b.ns, "ns/req", w.ops},
		{"odbc.resilient.allocs_per_req", w.allocs - b.allocs, "allocs/req", w.ops},
	}, nil
}

// PoolLease times the pool's three request-path operations over the canned
// driver: an uncontended statement lease, a lease handed between two
// sessions sharing one connection, and a pin/unpin cycle.
func PoolLease(ctx context.Context, budget time.Duration) ([]Metric, error) {
	table, err := oneRowTable()
	if err != nil {
		return nil, err
	}
	newPool := func(size int) (*pool.Pool, error) {
		return pool.New(pool.Config{Driver: &canned.Driver{Table: table}, Size: size, MaintainEvery: -1})
	}
	p, err := newPool(2)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	sc := p.Session()
	defer sc.Close()
	lease := measure(budget/3, 1, func() {
		if _, err := sc.ExecContext(ctx, oneRowSQL); err != nil {
			panic(err)
		}
	})
	pin := measure(budget/3, 1, func() {
		if err := sc.Pin(ctx); err != nil {
			panic(err)
		}
		sc.Unpin()
	})

	p1, err := newPool(1)
	if err != nil {
		return nil, err
	}
	defer p1.Close()
	// Two sessions execute back to back over the single connection; every
	// request that finds it leased waits for the other's release.
	const batch = 256
	a, b := p1.Session(), p1.Session()
	defer a.Close()
	defer b.Close()
	var execErr error
	var mu sync.Mutex
	handoff := measure(budget/3, 2*batch, func() {
		var wg sync.WaitGroup
		for _, s := range []*pool.SessionConn{a, b} {
			wg.Add(1)
			go func(s *pool.SessionConn) {
				defer wg.Done()
				for i := 0; i < batch; i++ {
					if _, err := s.ExecContext(ctx, oneRowSQL); err != nil {
						mu.Lock()
						execErr = err
						mu.Unlock()
						return
					}
				}
			}(s)
		}
		wg.Wait()
	})
	if execErr != nil {
		return nil, execErr
	}
	return []Metric{
		{"pool.lease.ns_per_req", lease.ns, "ns/req", lease.ops},
		{"pool.handoff.ns_per_req", handoff.ns, "ns/req", handoff.ops},
		{"pool.pin_cycle.ns", pin.ns, "ns", pin.ops},
	}, nil
}

// Wide is the result_stream fixture as the codec timers need it: the SQL-B
// text and its recorded reply, the frontend view of the same result, and the
// record parcels a client receives for it.
type Wide struct {
	Stream  *Stream
	SQLB    string
	Reply   *canned.Reply
	Records [][]byte
}

// CwpCodec times the backend protocol client against the canned socket:
// Client.ExecContext for a one-row reply (the round trip a small request
// pays) and ExecStreamContext draining the wide reply (the decode rate a
// large result is bounded by).
func CwpCodec(ctx context.Context, budget time.Duration, wide *Wide) ([]Metric, error) {
	table, err := oneRowTable()
	if err != nil {
		return nil, err
	}
	table.Put(wide.SQLB, wide.Reply)
	srv, err := canned.Serve(table)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	c, err := cwp.DialContext(ctx, srv.Addr(), "bench", "bench")
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rt := measure(budget/2, 1, func() {
		if _, err := c.ExecContext(ctx, oneRowSQL); err != nil {
			panic(err)
		}
	})
	var drainErr error
	drain := measure(budget/2, wide.Reply.Rows, func() {
		st, err := c.ExecStreamContext(ctx, wide.SQLB)
		if err != nil {
			drainErr = err
			return
		}
		for {
			if _, err := st.Next(ctx); err != nil {
				if !errors.Is(err, io.EOF) {
					drainErr = err
				}
				break
			}
		}
		_ = st.Close()
	})
	if drainErr != nil {
		return nil, drainErr
	}
	bytesPerRow := float64(len(wide.Reply.Wire)) / float64(wide.Reply.Rows)
	return []Metric{
		{"cwp.roundtrip.us_per_req", rt.ns / 1e3, "us/req", rt.ops},
		{"cwp.decode.rows_per_s", perSecond(drain.ns), "rows/s", drain.ops},
		{"cwp.decode.mb_per_s", bytesPerRow / drain.ns * 1e3, "MB/s", drain.ops},
		{"cwp.decode.allocs_per_row", drain.allocs, "allocs/row", drain.ops},
	}, nil
}

// TdfCodec times tdf.Decode and Batch.Encode over the wide reply's batches.
func TdfCodec(budget time.Duration, wide *Wide) ([]Metric, error) {
	var batches []*tdf.Batch
	var encoded [][]byte
	rows, size := 0, 0
	for _, res := range wide.Reply.Results {
		for _, b := range res.Batches {
			var buf bytes.Buffer
			if err := b.Encode(&buf); err != nil {
				return nil, err
			}
			batches = append(batches, b)
			encoded = append(encoded, buf.Bytes())
			rows += len(b.Rows)
			size += buf.Len()
		}
	}
	var codecErr error
	dec := measure(budget/2, rows, func() {
		for _, e := range encoded {
			if _, err := tdf.Decode(bytes.NewReader(e)); err != nil {
				codecErr = err
			}
		}
	})
	var buf bytes.Buffer
	enc := measure(budget/2, rows, func() {
		for _, b := range batches {
			buf.Reset()
			if err := b.Encode(&buf); err != nil {
				codecErr = err
			}
		}
	})
	if codecErr != nil {
		return nil, codecErr
	}
	bytesPerRow := float64(size) / float64(rows)
	return []Metric{
		{"tdf.decode.mb_per_s", bytesPerRow / dec.ns * 1e3, "MB/s", dec.ops},
		{"tdf.decode.allocs_per_row", dec.allocs, "allocs/row", dec.ops},
		{"tdf.encode.mb_per_s", bytesPerRow / enc.ns * 1e3, "MB/s", enc.ops},
	}, nil
}
