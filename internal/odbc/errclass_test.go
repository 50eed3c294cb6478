package odbc_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"

	"hyperq/internal/odbc"
	"hyperq/internal/odbc/faultdriver"
	"hyperq/internal/wire/cwp"
)

// timeoutErr is a net.Error whose Timeout() reports true (a socket
// read/write deadline expiry).
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

func TestErrorClassification(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		transient bool
		connErr   bool
	}{
		{"nil", nil, false, false},
		{"eof", io.EOF, true, true},
		{"unexpected-eof", io.ErrUnexpectedEOF, true, true},
		{"conn-reset", &net.OpError{Op: "read", Err: syscall.ECONNRESET}, true, true},
		{"conn-refused", &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}, true, true},
		{"broken-pipe", &net.OpError{Op: "write", Err: syscall.EPIPE}, true, true},
		{"conn-aborted", syscall.ECONNABORTED, true, true},
		{"socket-timeout", timeoutErr{}, true, true},
		{"deadline", context.DeadlineExceeded, true, true},
		{"net-closed", net.ErrClosed, true, true},
		{"wrapped-reset", fmt.Errorf("exec: %w", &net.OpError{Op: "read", Err: syscall.ECONNRESET}), true, true},
		// The wrapped forms the gateway's own layers produce: cwp's read of
		// a backend that died mid-request, and a connect whose logon reply
		// never came.
		{"mid-request-eof", fmt.Errorf("cwp: connection closed mid-request: %w", io.ErrUnexpectedEOF), true, true},
		{"connect-eof", fmt.Errorf("odbc: connect 127.0.0.1:7707: %w", io.EOF), true, true},
		{"read-on-closed", &net.OpError{Op: "read", Err: net.ErrClosed}, true, true},
		{"wrapped-deadline", fmt.Errorf("exec: %w", context.DeadlineExceeded), true, true},
		{"wrapped-canceled", fmt.Errorf("exec: %w", context.Canceled), false, false},
		{"faultdriver-dropped", faultdriver.Dropped(), true, true},
		{"faultdriver-refused", faultdriver.Refused(), true, true},
		// The caller gave up: never retried.
		{"canceled", context.Canceled, false, false},
		// SQL/semantic failures must never be retried.
		{"sql-error", &cwp.BackendError{Code: 3706, Message: "syntax error"}, false, false},
		{"semantic-error", &cwp.BackendError{Code: 3807, Message: "table does not exist"}, false, false},
		{"wrapped-sql-error", fmt.Errorf("exec: %w", &cwp.BackendError{Code: 3706, Message: "x"}), false, false},
		{"plain-error", errors.New("something else"), false, false},
		// Backend retryable aborts: transient (safe to re-execute; the
		// statement rolled back) but NOT connection errors.
		{"deadlock-abort", &cwp.BackendError{Code: 2631, Message: "deadlock"}, true, false},
		{"workload-abort", &cwp.BackendError{Code: 3598, Message: "resubmit"}, true, false},
	}
	for _, c := range cases {
		if got := odbc.Transient(c.err); got != c.transient {
			t.Errorf("%s: Transient = %v, want %v", c.name, got, c.transient)
		}
		if got := odbc.ConnectionError(c.err); got != c.connErr {
			t.Errorf("%s: ConnectionError = %v, want %v", c.name, got, c.connErr)
		}
	}
}
