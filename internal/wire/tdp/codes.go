package tdp

// Frontend failure and logon codes.
//
// This file is the single registry for every Teradata-compatible code the
// gateway emits toward clients. Unmodified client tools pattern-match on
// these numbers — BTEQ decides between "resubmit" and "give up", drivers
// decide whether a transaction's outcome is knowable — so each value is a
// wire-compatibility contract, not an implementation detail: emit sites name
// the constant, and tests pin the code each failure path sends (for example
// TestGatewayWriteNotRetriedAfterDrop and TestPooledAcquireTimeoutFrontendCode
// in internal/hyperq).
const (
	// CodeWriteStateUnknown (2828) aborts a request whose write may or may
	// not have been applied: the connection died after the statement was
	// sent and before the response arrived. Never auto-retried — the
	// client must determine the outcome itself.
	CodeWriteStateUnknown = 2828

	// CodeLogonDenied (3002) rejects a logon because the backend is
	// unreachable: "logons are disabled, retry later".
	CodeLogonDenied = 3002

	// CodeLogonInvalid (3004) rejects a malformed logon (missing user).
	CodeLogonInvalid = 3004

	// CodeBackendUnavailable (3120) fails fast while the circuit breaker
	// holds the backend open: "backend temporarily unavailable, resubmit".
	CodeBackendUnavailable = 3120

	// CodeGatewaySaturated (3134) aborts a request that could not obtain a
	// pooled backend connection in time (admission control or acquire
	// timeout), or whose result would push the gateway's in-flight result
	// memory past its hard cap.
	CodeGatewaySaturated = 3134

	// CodeClientTooSlow (3136) evicts a session whose client stopped reading
	// its result: a frontend write stalled past the configured write
	// deadline, so the gateway aborts the request and drops the connection
	// rather than let one reader pin result memory indefinitely.
	CodeClientTooSlow = 3136

	// CodeResultInterrupted (3610) aborts a request whose result delivery
	// failed after rows already reached the client: the backend died
	// mid-result. The partial result must be discarded and the request
	// resubmitted — the gateway never re-executes it transparently because
	// delivered rows cannot be retracted.
	CodeResultInterrupted = 3610

	// Statement-level failure codes (Teradata DBC numbering).

	// CodeSyntaxError (3706) is a statement the parser rejects.
	CodeSyntaxError = 3706

	// CodeSemanticError (3707) is a well-formed statement that fails
	// binding or transformation.
	CodeSemanticError = 3707

	// CodeObjectExists (3803) reports CREATE of an already-existing table.
	CodeObjectExists = 3803

	// CodeObjectNotFound (3807) reports a missing object or a failed
	// request against one (also the generic request-failure fallback).
	CodeObjectNotFound = 3807

	// CodeBadMacroArgument (3811) reports a macro invoked with the wrong
	// number or type of arguments.
	CodeBadMacroArgument = 3811

	// CodeMacroNotFound (3824) reports EXEC of a macro that does not exist.
	CodeMacroNotFound = 3824
)
