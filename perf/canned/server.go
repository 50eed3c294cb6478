package canned

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hyperq/internal/wire"
	"hyperq/internal/wire/cwp"
)

// Server speaks the backend wire protocol over real TCP and answers every
// MsgQuery with the pre-encoded bytes the table holds for its SQL-B text.
// Unknown text gets MsgError + MsgEnd, which the gateway turns into a
// failure parcel the load generator counts.
type Server struct {
	table *Table
	ln    net.Listener

	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool // set by Close; a connection accepted after it is dropped

	// Service time at the socket: from a query message read to the reply's
	// first firstChunk bytes accepted by the kernel. The remainder of a large
	// reply goes out at whatever pace the gateway reads it, which is the
	// gateway's time, not the backend's.
	queries   atomic.Int64
	serviceNs atomic.Int64
}

const firstChunk = 16 << 10

// Serve starts a canned backend on a loopback port.
func Serve(table *Table) (*Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &Server{table: table, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr is the address the gateway's -backend flag takes.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Service reports the queries answered and the total time spent answering.
func (s *Server) Service() (queries int64, total time.Duration) {
	return s.queries.Load(), time.Duration(s.serviceNs.Load())
}

// Close stops accepting, closes every session and waits for them to end.
func (s *Server) Close() {
	_ = s.ln.Close()
	s.mu.Lock()
	s.closed = true
	open := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		open = append(open, c)
	}
	s.mu.Unlock()
	for _, c := range open {
		_ = c.Close()
	}
	s.wg.Wait()
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if wire.TransientAcceptError(err) {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return
		}
		s.mu.Lock()
		closed := s.closed
		if !closed {
			s.conns[conn] = struct{}{}
		}
		s.mu.Unlock()
		if closed {
			_ = conn.Close()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.session(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			_ = conn.Close()
		}()
	}
}

func (s *Server) session(conn net.Conn) {
	in := bufio.NewReader(conn)
	kind, _, err := wire.ReadMessage(in)
	if err != nil || kind != cwp.MsgLogon {
		return
	}
	var ok wire.Buffer
	ok.PutString("session")
	if err := wire.WriteMessage(conn, cwp.MsgLogonOK, ok.Bytes()); err != nil {
		return
	}
	for {
		kind, payload, err := wire.ReadMessage(in)
		if err != nil || kind != cwp.MsgQuery {
			return // MsgLogoff, a closed socket, or a protocol violation
		}
		t0 := time.Now()
		sql := wire.NewReader(payload).String()
		reply, found := s.table.Lookup(sql)
		var rest []byte
		if found {
			head := reply.Wire
			if len(head) > firstChunk {
				head, rest = head[:firstChunk], head[firstChunk:]
			}
			_, err = conn.Write(head)
		} else {
			err = writeUnknown(conn, sql)
		}
		s.serviceNs.Add(int64(time.Since(t0)))
		s.queries.Add(1)
		if err == nil && rest != nil {
			_, err = conn.Write(rest)
		}
		if err != nil {
			return
		}
	}
}

func writeUnknown(conn net.Conn, sql string) error {
	var b wire.Buffer
	b.PutU32(3706)
	b.PutString((&UnknownSQLError{SQL: sql}).Error())
	if err := wire.WriteMessage(conn, cwp.MsgError, b.Bytes()); err != nil {
		return err
	}
	return wire.WriteMessage(conn, cwp.MsgEnd, nil)
}
