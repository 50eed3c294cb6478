package canned

import (
	"net"

	"hyperq/internal/hyperq"
	"hyperq/internal/wire/tdp"
)

// Front is a canned frontend: it answers each request text with stored front
// results through whatever tdp.ResponseWriter the server hands it. Served by
// tdp.Serve it yields the exact parcels a correct gateway must send for
// those results, with no gateway involved.
type Front map[string][]*hyperq.FrontResult

// Logon implements tdp.Handler; every session shares the read-only map.
func (f Front) Logon(user, password string) (tdp.SessionHandler, error) { return f, nil }

// Close implements tdp.SessionHandler.
func (f Front) Close() {}

// Request implements tdp.SessionHandler.
func (f Front) Request(sql string, w tdp.ResponseWriter) error {
	results, ok := f[sql]
	if !ok {
		return w.Failure(tdp.CodeObjectNotFound, "no canned front result for request")
	}
	for _, fr := range results {
		if fr.Cols != nil {
			if err := w.BeginResultSet(fr.Cols); err != nil {
				return err
			}
			for _, row := range fr.Rows {
				if err := w.Row(row); err != nil {
					return err
				}
			}
		}
		if err := w.EndStatement(fr.Activity, fr.Command); err != nil {
			return err
		}
	}
	return nil
}

// ServeFront serves a handler over loopback tdp. It returns the address and
// a stop function that closes the listener and waits for the accept loop.
func ServeFront(h tdp.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = tdp.Serve(ln, h)
	}()
	return ln.Addr().String(), func() { _ = ln.Close(); <-done }, nil
}
