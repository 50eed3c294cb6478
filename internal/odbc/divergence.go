package odbc

import (
	"fmt"

	"hyperq/internal/fingerprint"
	"hyperq/internal/wire/cwp"
)

// Divergence kinds, ordered roughly by how early in result comparison each
// is detected. A divergence record always carries the earliest difference
// found: comparing stops at the first differing cell so the report can cite
// it precisely.
const (
	// DivStatementCount: the replicas answered a request with different
	// numbers of statement results.
	DivStatementCount = "statement-count"
	// DivError: one replica failed the statement while the other succeeded,
	// or both failed with different errors.
	DivError = "error"
	// DivCommand: the command tags differ (e.g. SELECT vs INSERT).
	DivCommand = "command"
	// DivAffected: the affected-row counts of a non-result statement differ.
	DivAffected = "affected"
	// DivColumnCount: the result sets have different column counts.
	DivColumnCount = "column-count"
	// DivColumnMeta: a column's name or type differs.
	DivColumnMeta = "column-meta"
	// DivRowCount: the result sets have different row counts.
	DivRowCount = "row-count"
	// DivCell: a cell value differs; Row and Col locate it.
	DivCell = "cell"
	// DivWritePartial: a fanned-out write landed on some replicas but not
	// others — the replicas' contents have truly diverged and the executor
	// is poisoned (ErrReplicaDivergent) after this record is taken.
	DivWritePartial = "write-partial"
)

// Divergence is one detected difference between two replicas' answers to the
// same statement: the shadow-migration evidence record. Replica identifies
// the disagreeing replica (the baseline is always the lowest-indexed healthy
// replica); Stmt the statement index within the request; Row/Col the first
// differing cell (-1 when the difference is not row- or column-specific).
// Baseline and Observed are rendered values — a cell's SQL literal, an error
// text, a count — chosen by Kind.
type Divergence struct {
	// SQL is the backend statement text both replicas executed.
	SQL string `json:"sql"`
	// Fingerprint is the statement-shape id of SQL (the redacted template
	// hash), the join key against query logs and the /statements registry.
	Fingerprint string `json:"fingerprint"`
	Kind        string `json:"kind"`
	Replica     int    `json:"replica"`
	Stmt        int    `json:"stmt"`
	Row         int    `json:"row"`
	Col         int    `json:"col"`
	Baseline    string `json:"baseline"`
	Observed    string `json:"observed"`
}

// String renders the divergence as one human-readable line.
func (d *Divergence) String() string {
	loc := fmt.Sprintf("replica %d stmt %d", d.Replica, d.Stmt)
	if d.Row >= 0 {
		loc += fmt.Sprintf(" row %d", d.Row)
	}
	if d.Col >= 0 {
		loc += fmt.Sprintf(" col %d", d.Col)
	}
	return fmt.Sprintf("%s at %s: baseline %s, observed %s [%s]", d.Kind, loc, d.Baseline, d.Observed, d.Fingerprint)
}

// CompareFunc diffs two replicas' results for one statement, returning the
// first difference or nil when they are equivalent. The replay harness
// installs replay.Differ's tolerance-aware comparator here.
// Implementations fill SQL/Kind/Stmt/Row/Col/Baseline/Observed; the
// replicated executor stamps Replica and Fingerprint.
type CompareFunc func(sql string, baseline, observed []*cwp.StatementResult) *Divergence

// DivergenceSource is implemented by executors that record result
// divergences (the replicated executor in compare mode). TakeDivergences
// drains the records accumulated since the last call; because an executor
// serves one request at a time, draining after each request attributes every
// record to the statement that produced it.
type DivergenceSource interface {
	TakeDivergences() []*Divergence
}

// stampDivergence fills the fields the comparator leaves to the executor.
func stampDivergence(d *Divergence, sql string, replica int) *Divergence {
	if d.SQL == "" {
		d.SQL = sql
	}
	d.Replica = replica
	d.Fingerprint = fingerprint.ShortID(fingerprint.TemplateHash(d.SQL))
	return d
}
