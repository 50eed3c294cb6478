// Package querylog writes the gateway's statement log: one JSON line per
// request, carrying the trace id, the frontend SQL, the translated SQL-B
// text, per-stage timings, and the outcome. The writer appends with O_APPEND
// (atomic for line-sized writes on POSIX) and is rotation-safe: before each
// write it re-stats the configured path and transparently reopens when an
// external rotation moved or truncated the file away. With redaction on,
// literal values in the SQL text are replaced lexically with '?' so lifted
// customer data never reaches the log.
//
// Capture mode (opt-in) additionally records what a shadow-migration replay
// needs to re-execute the workload faithfully: a monotonic per-session
// sequence number, the wall-clock delta to the session's previous statement,
// and — when redaction is on — the pre-redaction statement text. ReadFiles
// and Streams reconstruct per-session statement streams from one or more
// rotated capture files.
package querylog

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"hyperq/internal/fingerprint"
	"hyperq/internal/trace"
)

// Entry is one logged statement.
type Entry struct {
	Time            time.Time        `json:"time"`
	TraceID         string           `json:"trace_id"`
	Session         uint64           `json:"session"`
	User            string           `json:"user"`
	SQL             string           `json:"sql"`
	Translated      []string         `json:"translated,omitempty"`
	StageNs         map[string]int64 `json:"stage_ns,omitempty"`
	DurationNs      int64            `json:"duration_ns"`
	Outcome         string           `json:"outcome"`
	ErrCode         int              `json:"error_code,omitempty"`
	ErrClass        string           `json:"error_class,omitempty"`
	Cache           string           `json:"cache,omitempty"`
	BackendRequests int              `json:"backend_requests"`
	// Fingerprint is the statement-shape id joining the entry to the
	// /statements workload registry; CacheTier the registry's normalized
	// cache-outcome name ("exact-hit", "fingerprint-hit", "miss", "bypass");
	// Streamed marks results delivered through the streaming pipeline.
	Fingerprint string `json:"fingerprint,omitempty"`
	CacheTier   string `json:"cache_tier,omitempty"`
	Streamed    bool   `json:"streamed,omitempty"`
	// Capture-mode fields. Seq is the 1-based per-session statement sequence
	// number; DeltaNs the start-to-start wall-clock distance from the
	// session's previous statement (0 for the first); CaptureSQL the
	// pre-redaction statement text, recorded only when redaction would
	// otherwise erase the literals a replay needs.
	Seq        uint64 `json:"seq,omitempty"`
	DeltaNs    int64  `json:"delta_ns,omitempty"`
	CaptureSQL string `json:"capture_sql,omitempty"`
}

// ReplaySQL returns the statement text a replay should re-execute: the
// pre-redaction capture text when present, the logged SQL otherwise.
func (e *Entry) ReplaySQL() string {
	if e.CaptureSQL != "" {
		return e.CaptureSQL
	}
	return e.SQL
}

// cacheTier maps a trace's cache outcome to the workload registry's tier
// vocabulary (the trace keeps its historical names for compatibility).
func cacheTier(cache string) string {
	switch cache {
	case "raw-hit":
		return "exact-hit"
	case "hit":
		return "fingerprint-hit"
	default:
		return cache
	}
}

// Writer is a rotation-safe JSON-lines appender. Safe for concurrent use.
type Writer struct {
	mu      sync.Mutex
	path    string
	redact  bool
	capture bool
	f       *os.File
	fi      os.FileInfo

	// capMu guards the per-session capture state. A session's statements
	// are logged in order (a session serves one request at a time), so the
	// sequence numbers and deltas here reconstruct each stream faithfully.
	capMu    sync.Mutex
	sessions map[uint64]*captureState
}

type captureState struct {
	seq       uint64
	lastStart time.Time
}

// Options configures a Writer.
type Options struct {
	// Redact replaces literal values with '?' in logged SQL.
	Redact bool
	// Capture records replay-grade detail on every entry: per-session
	// sequence numbers, inter-statement wall-clock deltas, and (when Redact
	// is also on) the pre-redaction statement text in capture_sql. Capture
	// logs contain lifted literal values; the flag is opt-in.
	Capture bool
}

// Open creates (or appends to) the log at path.
func Open(path string, o Options) (*Writer, error) {
	w := &Writer{path: path, redact: o.Redact, capture: o.Capture}
	if o.Capture {
		w.sessions = make(map[uint64]*captureState)
	}
	if err := w.reopen(); err != nil {
		return nil, err
	}
	return w, nil
}

// Redacting reports whether literal redaction is on.
func (w *Writer) Redacting() bool { return w != nil && w.redact }

// Capturing reports whether replay capture is on.
func (w *Writer) Capturing() bool { return w != nil && w.capture }

func (w *Writer) reopen() error {
	if w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return err
	}
	w.f, w.fi = f, fi
	return nil
}

// LogTrace appends the finished trace as one JSON line. Errors are returned
// for callers that care (the gateway drops them: the data path must not fail
// because the log disk did). Safe on a nil writer.
func (w *Writer) LogTrace(t *trace.Trace) error {
	if w == nil || t == nil {
		return nil
	}
	e := Entry{
		Time:            t.StartedAt,
		TraceID:         t.ID,
		Session:         t.Session,
		User:            t.User,
		SQL:             t.SQL,
		Translated:      t.Translated,
		StageNs:         t.StageNs.Map(),
		DurationNs:      t.DurNs,
		Outcome:         t.Outcome,
		ErrCode:         t.ErrCode,
		ErrClass:        t.ErrClass,
		Cache:           t.Cache,
		BackendRequests: t.BackendRequests,
		Fingerprint:     t.Fingerprint,
		CacheTier:       cacheTier(t.Cache),
		Streamed:        t.Streamed,
	}
	if w.capture {
		w.capMu.Lock()
		st := w.sessions[t.Session]
		if st == nil {
			st = &captureState{}
			w.sessions[t.Session] = st
		}
		st.seq++
		e.Seq = st.seq
		if st.seq > 1 {
			e.DeltaNs = t.StartedAt.Sub(st.lastStart).Nanoseconds()
			if e.DeltaNs < 0 {
				e.DeltaNs = 0
			}
		}
		st.lastStart = t.StartedAt
		w.capMu.Unlock()
		if w.redact {
			e.CaptureSQL = t.SQL
		}
	}
	if w.redact {
		e.SQL = Redact(e.SQL)
		if len(e.Translated) > 0 {
			red := make([]string, len(e.Translated))
			for i, s := range e.Translated {
				red[i] = Redact(s)
			}
			e.Translated = red
		}
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	// Rotation check: if the path no longer names the open file (logrotate
	// moved it, or someone deleted it), reopen before writing so new lines
	// land in the fresh file instead of the rotated one.
	if st, err := os.Stat(w.path); err != nil || !os.SameFile(st, w.fi) {
		if err := w.reopen(); err != nil {
			return err
		}
	}
	_, err = w.f.Write(line)
	return err
}

// Close releases the file.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// Redact replaces literal values in SQL text with '?' lexically: quoted
// strings (a doubled quote escapes one) and numeric literals, including
// decimals and exponents. Identifiers — even ones containing digits, like
// T1 or L_QUANTITY — and quoted identifiers are left intact, as are keywords
// and operators, so the statement shape stays readable. The output is exactly
// the statement's fingerprint template, so a redacted log line joins against
// the /statements registry by text as well as by id.
func Redact(sql string) string {
	return fingerprint.TemplateText(sql)
}
