package layers

import (
	"bytes"
	"runtime"
	"time"

	"hyperq/internal/hyperq"
	"hyperq/internal/types"
	"hyperq/internal/wire"
	"hyperq/internal/wire/tdp"
	"hyperq/perf/canned"
	"hyperq/perf/load"
)

// WireFrame times one message through the shared framing: WriteMessage into
// a buffer and ReadMessage back out, 64-byte payload.
func WireFrame(budget time.Duration) []Metric {
	payload := bytes.Repeat([]byte{'x'}, 64)
	var buf bytes.Buffer
	c := measure(budget, 1, func() {
		buf.Reset()
		if err := wire.WriteMessage(&buf, 0x16, payload); err != nil {
			panic(err)
		}
		if _, _, err := wire.ReadMessage(&buf); err != nil {
			panic(err)
		}
	})
	return []Metric{
		{"wire.frame.ns_per_msg", c.ns, "ns/msg", c.ops},
		{"wire.frame.allocs_per_msg", c.allocs, "allocs/msg", c.ops},
	}
}

// encodeTimer is a frontend handler that answers the wide request by pushing
// the fixture's rows through the server's ResponseWriter and times exactly
// the Row calls.
type encodeTimer struct {
	front  *hyperq.FrontResult
	ns     int64
	rows   int64
	allocs uint64
}

func (h *encodeTimer) Logon(user, password string) (tdp.SessionHandler, error) { return h, nil }
func (h *encodeTimer) Close()                                                  {}

func (h *encodeTimer) Request(sql string, w tdp.ResponseWriter) error {
	if err := w.BeginResultSet(h.front.Cols); err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, row := range h.front.Rows {
		if err := w.Row(row); err != nil {
			return err
		}
	}
	h.ns += time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&m1)
	h.rows += int64(len(h.front.Rows))
	h.allocs += m1.Mallocs - m0.Mallocs
	return w.EndStatement(int64(len(h.front.Rows)), "SELECT")
}

// TDP times the frontend protocol from both ends over a loopback socket:
// a request answered with one canned row (the round trip a small request
// pays), ResponseWriter.Row over the wide rows with the load client draining
// them (the encode rate a large result is bounded by), and DecodeRow over
// the wide record parcels (what bounds the load generator's sampled check).
func TDP(budget time.Duration, wide *Wide, wideFront *hyperq.FrontResult) ([]Metric, error) {
	one := canned.Front{oneRowSQL: {{
		Cols:     []tdp.ColumnDef{{Name: "c", Type: types.Int}},
		Rows:     [][]types.Datum{{types.NewInt(1)}},
		Activity: 1,
		Command:  "SELECT",
	}}}
	addr, stop, err := canned.ServeFront(one)
	if err != nil {
		return nil, err
	}
	c, err := load.Dial(addr, user)
	if err != nil {
		stop()
		return nil, err
	}
	var doErr error
	rt := measure(budget/3, 1, func() {
		if _, err := c.Do(oneRowSQL, false); err != nil {
			doErr = err
		}
	})
	_ = c.Close()
	stop()
	if doErr != nil {
		return nil, doErr
	}

	h := &encodeTimer{front: wideFront}
	addr, stop, err = canned.ServeFront(h)
	if err != nil {
		return nil, err
	}
	defer stop()
	if c, err = load.Dial(addr, user); err != nil {
		return nil, err
	}
	defer c.Close()
	for start := time.Now(); time.Since(start) < budget/3 || h.rows == 0; {
		if _, err := c.Do("wide", false); err != nil {
			return nil, err
		}
	}

	cols := wideFront.Cols
	dec := measure(budget/3, len(wide.Records), func() {
		for _, p := range wide.Records {
			if _, err := tdp.DecodeRow(cols, p); err != nil {
				doErr = err
			}
		}
	})
	if doErr != nil {
		return nil, doErr
	}
	return []Metric{
		{"tdp.roundtrip.us_per_req", rt.ns / 1e3, "us/req", rt.ops},
		{"tdp.encode.rows_per_s", float64(h.rows) / (float64(h.ns) / 1e9), "rows/s", h.rows},
		{"tdp.encode.allocs_per_row", float64(h.allocs) / float64(h.rows), "allocs/row", h.rows},
		{"tdp.decode.rows_per_s", perSecond(dec.ns), "rows/s", dec.ops},
	}, nil
}
