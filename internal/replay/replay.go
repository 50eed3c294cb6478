package replay

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"hyperq/internal/catalog"
	"hyperq/internal/dialect"
	"hyperq/internal/fingerprint"
	"hyperq/internal/hyperq"
	"hyperq/internal/odbc"
	"hyperq/internal/querylog"
	"hyperq/internal/wstats"
)

// Config configures a replay Runner.
type Config struct {
	// Target is the backend dialect profile the gateway translates for. Both
	// backend profiles receive the same translated SQL.
	Target *dialect.Profile
	// Baseline is the trusted backend: its answers are served and treated as
	// ground truth. Candidate is the profile under validation; wherever its
	// answers differ from the baseline's, a finding is recorded.
	Baseline  odbc.Driver
	Candidate odbc.Driver
	// BaselineName/CandidateName label the profiles in the report.
	BaselineName  string
	CandidateName string
	// Speedup scales captured inter-statement gaps: 10 replays ten times
	// faster than the workload ran. <= 0 replays at maximum speed (no
	// pacing at all).
	Speedup float64
	// MaxConcurrency bounds how many captured sessions replay at once.
	// 0 replays every session concurrently, as captured.
	MaxConcurrency int
	// Tolerance configures the result differ.
	Tolerance Tolerance
	// BackendTimeout bounds each replayed statement's backend execution.
	BackendTimeout time.Duration
	// Catalog seeds the replay gateway's metadata store — typically a clone
	// of the baseline backend's catalog, mirroring the schema import a
	// production gateway performs at startup. Nil starts empty, which is
	// fine when the captured workload itself creates the schema.
	Catalog *catalog.Catalog
}

// Runner replays captured statement streams through a full gateway pipeline
// whose backend is a two-replica ReplicatedDriver in compare mode: every
// read executes on both profiles and is diffed, every write fans out to
// both.
type Runner struct {
	g   *hyperq.Gateway
	cfg Config
}

// NewRunner builds the dual-backend gateway stack for a replay.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Target == nil {
		return nil, fmt.Errorf("replay: target profile required")
	}
	if cfg.Baseline == nil || cfg.Candidate == nil {
		return nil, fmt.Errorf("replay: baseline and candidate drivers required")
	}
	df := &Differ{Tol: cfg.Tolerance}
	rd := &odbc.ReplicatedDriver{
		Replicas: []odbc.Driver{cfg.Baseline, cfg.Candidate},
		Metrics:  &odbc.ResilienceMetrics{},
	}
	rd.Compare = df.Compare
	g, err := hyperq.New(hyperq.Config{
		Target:         cfg.Target,
		Driver:         rd,
		Resilience:     rd.Metrics,
		BackendTimeout: cfg.BackendTimeout,
		Catalog:        cfg.Catalog,
	})
	if err != nil {
		return nil, err
	}
	return &Runner{g: g, cfg: cfg}, nil
}

// Gateway exposes the replay gateway (metrics, /statements registry).
func (r *Runner) Gateway() *hyperq.Gateway { return r.g }

// Prepare runs setup statements through a replay session before the paced
// replay — the mirror of the capture side provisioning schema and shared
// objects (views, macros) before attaching the capture log. Setup failures
// abort: replaying a workload against an unprovisioned pair would report
// every statement divergent-by-error.
func (r *Runner) Prepare(user string, stmts []string) error {
	if len(stmts) == 0 {
		return nil
	}
	sess, err := r.g.NewLocalSession(user)
	if err != nil {
		return err
	}
	defer sess.Close()
	for _, sql := range stmts {
		if _, err := sess.Run(sql); err != nil {
			return fmt.Errorf("replay setup %q: %w", sql, err)
		}
		// Setup is provisioning, not comparison: discard any records (e.g.
		// benign metadata drift) so the report covers the workload only.
		sess.TakeDivergences()
	}
	return nil
}

// Load reads one or more capture-log files (oldest rotation first) and
// reconstructs the per-session statement streams.
func Load(paths ...string) ([]querylog.Stream, error) {
	entries, err := querylog.ReadFiles(paths...)
	if err != nil {
		return nil, err
	}
	return querylog.Streams(entries), nil
}

// Finding is one divergence between the two profiles, joined back to the
// frontend statement that produced it and its workload fingerprint.
type Finding struct {
	Session uint64 `json:"session"`
	Seq     uint64 `json:"seq"`
	// SQL is the frontend statement as replayed; Fingerprint its shape id —
	// the join key against the capture log and the /statements registry.
	SQL         string `json:"sql"`
	Fingerprint string `json:"fingerprint"`
	// Template and Exemplar come from the replay gateway's workload
	// registry: the redacted statement template and the trace id of a
	// retained exemplar request of this shape.
	Template string `json:"template,omitempty"`
	Exemplar string `json:"exemplar,omitempty"`
	// Divergence is the backend-level detail: kind, statement index, first
	// differing row/column, and the rendered baseline/observed values. Its
	// SQL and fingerprint refer to the translated backend statement.
	Divergence *odbc.Divergence `json:"divergence"`
}

// OutcomeMismatch records a statement whose replay outcome differed from the
// captured outcome (ok vs error). Two failures count as consistent even when
// the messages differ.
type OutcomeMismatch struct {
	Session     uint64 `json:"session"`
	Seq         uint64 `json:"seq"`
	SQL         string `json:"sql"`
	Fingerprint string `json:"fingerprint"`
	Captured    string `json:"captured"`
	Replayed    string `json:"replayed"`
	Error       string `json:"error,omitempty"`
}

// SessionReport is one replayed session's accounting.
type SessionReport struct {
	Session    uint64 `json:"session"`
	User       string `json:"user"`
	Statements int    `json:"statements"`
	Replayed   int    `json:"replayed"`
	// Gaps counts capture sequence numbers missing from the stream.
	Gaps int `json:"gaps,omitempty"`
	// PoisonedAt is the sequence number of a partial write that left the
	// two profiles truly divergent; the session stops replaying there.
	PoisonedAt uint64 `json:"poisoned_at,omitempty"`
}

// Report is the equivalence report: the machine-readable verdict of one
// shadow replay.
type Report struct {
	Baseline   string  `json:"baseline"`
	Candidate  string  `json:"candidate"`
	Speedup    float64 `json:"speedup"` // 0 = max speed
	Sessions   int     `json:"sessions"`
	Statements int     `json:"statements"`
	Replayed   int     `json:"replayed"`
	Gaps       int     `json:"gaps,omitempty"`
	// CapturedSpanNs is the wall-clock span the workload originally took
	// (largest per-session sum of deltas); DurationNs the replay's.
	CapturedSpanNs int64 `json:"captured_span_ns"`
	DurationNs     int64 `json:"duration_ns"`
	// Equivalent is the verdict: no divergences and no outcome mismatches.
	Equivalent bool              `json:"equivalent"`
	Findings   []Finding         `json:"findings,omitempty"`
	Mismatches []OutcomeMismatch `json:"outcome_mismatches,omitempty"`
	PerSession []SessionReport   `json:"per_session"`
}

// WriteJSON emits the report as indented JSON.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Summary renders the human-readable verdict.
func (rep *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shadow replay: %s vs %s — %d sessions, %d/%d statements replayed in %s",
		rep.Baseline, rep.Candidate, rep.Sessions, rep.Replayed, rep.Statements,
		time.Duration(rep.DurationNs).Round(time.Millisecond))
	if rep.Speedup > 0 {
		fmt.Fprintf(&b, " (%.0fx of a %s capture)", rep.Speedup,
			time.Duration(rep.CapturedSpanNs).Round(time.Millisecond))
	} else {
		b.WriteString(" (max speed)")
	}
	b.WriteByte('\n')
	if rep.Gaps > 0 {
		fmt.Fprintf(&b, "warning: %d captured statements missing (log rotation gaps)\n", rep.Gaps)
	}
	if rep.Equivalent {
		b.WriteString("equivalent: yes — the candidate answered every statement like the baseline\n")
		return b.String()
	}
	fmt.Fprintf(&b, "equivalent: NO — %d divergences, %d outcome mismatches\n",
		len(rep.Findings), len(rep.Mismatches))
	for _, f := range rep.Findings {
		fmt.Fprintf(&b, "  [%s] session %d seq %d: %s\n", f.Fingerprint, f.Session, f.Seq, f.Divergence)
		fmt.Fprintf(&b, "      %s\n", f.SQL)
		if f.Exemplar != "" {
			fmt.Fprintf(&b, "      exemplar trace: %s\n", f.Exemplar)
		}
	}
	for _, m := range rep.Mismatches {
		fmt.Fprintf(&b, "  [%s] session %d seq %d: captured %s, replayed %s (%s)\n",
			m.Fingerprint, m.Session, m.Seq, m.Captured, m.Replayed, m.Error)
	}
	return b.String()
}

// Replay re-executes the captured streams and returns the equivalence
// report. Each captured session replays on its own goroutine (bounded by
// MaxConcurrency) with its captured inter-statement gaps scaled by Speedup;
// statements within a session stay strictly ordered.
func (r *Runner) Replay(streams []querylog.Stream) *Report {
	rep := &Report{
		Baseline:  labelOr(r.cfg.BaselineName, "baseline"),
		Candidate: labelOr(r.cfg.CandidateName, "candidate"),
		Speedup:   r.cfg.Speedup,
		Sessions:  len(streams),
	}
	if rep.Speedup < 0 {
		rep.Speedup = 0
	}
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		sem chan struct{}
	)
	if r.cfg.MaxConcurrency > 0 {
		sem = make(chan struct{}, r.cfg.MaxConcurrency)
	}
	start := time.Now()
	epoch := captureEpoch(streams)
	perSession := make([]SessionReport, len(streams))
	for i := range streams {
		st := &streams[i]
		rep.Statements += len(st.Entries)
		rep.Gaps += st.Gaps
		// The captured span runs from the capture epoch (earliest statement
		// anywhere) to each stream's last statement start — the wall-clock
		// window pacing reproduces, session start offsets included.
		span := streamSpan(st)
		if len(st.Entries) > 0 && !st.Entries[0].Time.IsZero() {
			span += st.Entries[0].Time.Sub(epoch).Nanoseconds()
		}
		if span > rep.CapturedSpanNs {
			rep.CapturedSpanNs = span
		}
		// Sessions start at their captured offset from the earliest session
		// (scaled by the speed-up), preserving the capture's cross-session
		// interleaving — a session that logged on mid-capture logs on
		// mid-replay too.
		var offset time.Duration
		if r.cfg.Speedup > 0 && len(st.Entries) > 0 && !st.Entries[0].Time.IsZero() {
			offset = time.Duration(float64(st.Entries[0].Time.Sub(epoch)) / r.cfg.Speedup)
		}
		wg.Add(1)
		go func(i int, st *querylog.Stream, offset time.Duration) {
			defer wg.Done()
			if sem != nil {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			if wait := time.Until(start.Add(offset)); wait > 0 {
				time.Sleep(wait)
			}
			perSession[i] = r.replayStream(st, &mu, rep)
		}(i, st, offset)
	}
	wg.Wait()
	rep.DurationNs = time.Since(start).Nanoseconds()
	for _, sr := range perSession {
		rep.Replayed += sr.Replayed
	}
	rep.PerSession = perSession
	r.joinWorkloadStats(rep)
	sort.Slice(rep.Findings, func(i, j int) bool {
		if rep.Findings[i].Session != rep.Findings[j].Session {
			return rep.Findings[i].Session < rep.Findings[j].Session
		}
		return rep.Findings[i].Seq < rep.Findings[j].Seq
	})
	sort.Slice(rep.Mismatches, func(i, j int) bool {
		if rep.Mismatches[i].Session != rep.Mismatches[j].Session {
			return rep.Mismatches[i].Session < rep.Mismatches[j].Session
		}
		return rep.Mismatches[i].Seq < rep.Mismatches[j].Seq
	})
	rep.Equivalent = len(rep.Findings) == 0 && len(rep.Mismatches) == 0
	return rep
}

// replayStream runs one captured session front to back.
func (r *Runner) replayStream(st *querylog.Stream, mu *sync.Mutex, rep *Report) SessionReport {
	sr := SessionReport{Session: st.Session, User: st.User, Statements: len(st.Entries), Gaps: st.Gaps}
	user := st.User
	if user == "" {
		user = "replay"
	}
	sess, err := r.g.NewLocalSession(user)
	if err != nil {
		mu.Lock()
		rep.Mismatches = append(rep.Mismatches, OutcomeMismatch{
			Session: st.Session, Captured: "ok", Replayed: "error",
			Error: "session open failed: " + err.Error(),
		})
		mu.Unlock()
		return sr
	}
	defer sess.Close()
	start := time.Now()
	var cum time.Duration
	for _, e := range st.Entries {
		if r.cfg.Speedup > 0 && e.DeltaNs > 0 {
			cum += time.Duration(float64(e.DeltaNs) / r.cfg.Speedup)
			if wait := time.Until(start.Add(cum)); wait > 0 {
				time.Sleep(wait)
			}
		}
		sql := e.ReplaySQL()
		_, runErr := sess.Run(sql)
		sr.Replayed++
		fp := fingerprint.ShortID(fingerprint.TemplateHash(sql))
		divs := sess.TakeDivergences()
		if len(divs) > 0 {
			mu.Lock()
			for _, d := range divs {
				rep.Findings = append(rep.Findings, Finding{
					Session: st.Session, Seq: e.Seq, SQL: sql, Fingerprint: fp, Divergence: d,
				})
			}
			mu.Unlock()
		}
		if runErr != nil && errors.Is(runErr, odbc.ErrReplicaDivergent) {
			// A partial write left the profiles truly divergent; everything
			// after it would diff against corrupt state, so stop here.
			sr.PoisonedAt = e.Seq
			break
		}
		if mismatchOutcome(e.Outcome, runErr) {
			m := OutcomeMismatch{
				Session: st.Session, Seq: e.Seq, SQL: sql, Fingerprint: fp,
				Captured: captureOutcome(e.Outcome), Replayed: "ok",
			}
			if runErr != nil {
				m.Replayed = "error"
				m.Error = runErr.Error()
			}
			mu.Lock()
			rep.Mismatches = append(rep.Mismatches, m)
			mu.Unlock()
		}
	}
	return sr
}

// mismatchOutcome compares the captured outcome with the replay's: a
// statement that succeeded then must succeed now, and one that failed then
// must fail now (engines word errors differently, so messages are not
// compared).
func mismatchOutcome(captured string, runErr error) bool {
	return (captureOutcome(captured) == "ok") != (runErr == nil)
}

// captureOutcome normalizes a captured outcome; pre-capture logs may lack
// the field, which reads as success.
func captureOutcome(o string) string {
	if o == "" || o == "ok" {
		return "ok"
	}
	return "error"
}

// joinWorkloadStats annotates findings with the replay gateway's workload
// registry: the redacted template and the exemplar trace id of each
// divergent fingerprint.
func (r *Runner) joinWorkloadStats(rep *Report) {
	reg := r.g.Statements()
	if reg == nil || len(rep.Findings) == 0 {
		return
	}
	snap := reg.Snapshot("total", 0)
	byFP := make(map[string]*wstats.Stat, len(snap.Statements))
	for i := range snap.Statements {
		byFP[snap.Statements[i].Fingerprint] = &snap.Statements[i]
	}
	for i := range rep.Findings {
		if s := byFP[rep.Findings[i].Fingerprint]; s != nil {
			rep.Findings[i].Template = s.Template
			rep.Findings[i].Exemplar = s.Exemplar
		}
	}
}

// captureEpoch is the earliest statement start across all streams — the
// capture's t=0, against which session start offsets are measured.
func captureEpoch(streams []querylog.Stream) time.Time {
	var epoch time.Time
	for i := range streams {
		if len(streams[i].Entries) == 0 {
			continue
		}
		if t := streams[i].Entries[0].Time; !t.IsZero() && (epoch.IsZero() || t.Before(epoch)) {
			epoch = t
		}
	}
	return epoch
}

func streamSpan(st *querylog.Stream) int64 {
	var span int64
	for _, e := range st.Entries {
		if e.DeltaNs > 0 {
			span += e.DeltaNs
		}
	}
	return span
}

func labelOr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
