package perf

import (
	"fmt"
	"strings"

	"hyperq/internal/catalog"
	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/hyperq"
	"hyperq/internal/odbc"
	"hyperq/internal/replay"
	"hyperq/internal/schemaload"
	"hyperq/internal/tdf"
	"hyperq/internal/wire/cwp"
	"hyperq/internal/wire/tdp"
	"hyperq/perf/canned"
	"hyperq/perf/load"
)

// BenchUser is the logon every session of a run uses, reference and timed
// alike: HELP SESSION echoes the user name, so it is part of the answer.
const BenchUser = "bench"

// Reference is what set-up leaves behind for the timed passes: the canned
// SQL-B reply table, the reference answer to every request text, and the
// gateway catalog the in-process passes start from.
type Reference struct {
	Table  *canned.Table
	Expect []*load.Expect // indexed like Workload.Texts
	// Front is the reference gateway's result for each request text.
	Front [][]*hyperq.FrontResult
}

// loadEngine provisions a fresh engine of the profile with the workload's
// backend schema and rows.
func loadEngine(w *Workload, prof *dialect.Profile) (*engine.Engine, error) {
	eng := engine.New(prof)
	s := eng.NewSession()
	for _, ddl := range w.EngineDDL {
		if _, err := s.ExecSQL(ddl); err != nil {
			return nil, fmt.Errorf("engine schema: %w", err)
		}
	}
	for name, rows := range w.EngineRows {
		if err := s.InsertRows(name, rows); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// GatewayCatalog imports the workload's gateway schema, as cmd/hyperq
// -schema does.
func (w *Workload) GatewayCatalog() (*catalog.Catalog, error) {
	cat := catalog.New()
	if err := schemaload.Import(cat, w.GatewaySchema); err != nil {
		return nil, fmt.Errorf("gateway schema: %w", err)
	}
	return cat, nil
}

// referenceRun executes the workload's set-up statements and then every
// request text once, in recording order, on a cold non-streaming gateway of
// the target over the driver.
func referenceRun(w *Workload, target *dialect.Profile, driver odbc.Driver) ([][]*hyperq.FrontResult, error) {
	cat, err := w.GatewayCatalog()
	if err != nil {
		return nil, err
	}
	g, err := hyperq.New(hyperq.Config{
		Target:                  target,
		Driver:                  driver,
		Catalog:                 cat,
		DisableTranslationCache: true,
		DisableStreaming:        true,
	})
	if err != nil {
		return nil, err
	}
	s, err := g.NewLocalSession(BenchUser)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for _, sql := range w.Setup {
		if _, err := s.Run(sql); err != nil {
			return nil, fmt.Errorf("%s set-up %q: %w", target.Name, sql, err)
		}
	}
	front := make([][]*hyperq.FrontResult, len(w.Texts))
	for _, id := range w.Record {
		res, err := s.Run(w.Texts[id])
		if err != nil {
			return nil, fmt.Errorf("%s reference %q: %w", target.Name, w.Texts[id], err)
		}
		front[id] = res
	}
	return front, nil
}

// Record builds the workload's reference: each request text runs once on a
// CloudA reference gateway over a recording driver on a real engine, and once
// on a CloudD one whose answers must be equivalent under replay.Differ. Any
// failing statement or divergence is an error: a workload with either cannot
// be served from a table.
func Record(w *Workload) (*Reference, error) {
	engA, err := loadEngine(w, dialect.CloudA())
	if err != nil {
		return nil, err
	}
	table := canned.NewTable()
	frontA, err := referenceRun(w, dialect.CloudA(),
		&canned.Recorder{Inner: &odbc.LocalDriver{Engine: engA, User: BenchUser}, Table: table})
	if err != nil {
		return nil, err
	}
	engD, err := loadEngine(w, dialect.CloudD())
	if err != nil {
		return nil, err
	}
	frontD, err := referenceRun(w, dialect.CloudD(), &odbc.LocalDriver{Engine: engD, User: BenchUser})
	if err != nil {
		return nil, err
	}
	differ := &replay.Differ{}
	for id, sql := range w.Texts {
		// HELP SESSION names the virtualized target in its answer, so the two
		// profiles differ there by design.
		if strings.EqualFold(strings.TrimSpace(sql), "HELP SESSION") {
			continue
		}
		if d := differ.Compare(sql, asBackend(frontA[id]), asBackend(frontD[id])); d != nil {
			return nil, fmt.Errorf("CloudA and CloudD disagree on %q: %s (baseline %s, observed %s)",
				sql, d.Kind, d.Baseline, d.Observed)
		}
	}
	expect, err := wireExpectations(w, frontA)
	if err != nil {
		return nil, err
	}
	return &Reference{Table: table, Expect: expect, Front: frontA}, nil
}

// asBackend presents front results in the shape replay.Differ compares.
func asBackend(front []*hyperq.FrontResult) []*cwp.StatementResult {
	out := make([]*cwp.StatementResult, len(front))
	for i, fr := range front {
		sr := &cwp.StatementResult{Command: fr.Command, Affected: fr.Activity}
		if fr.Cols != nil {
			sr.Cols = make([]tdf.ColumnMeta, len(fr.Cols))
			for ci, c := range fr.Cols {
				sr.Cols[ci] = tdf.ColumnMeta{Name: c.Name, Type: c.Type}
			}
			sr.Batches = []*tdf.Batch{{Cols: sr.Cols, Rows: fr.Rows}}
		}
		out[i] = sr
	}
	return out
}

// wireExpectations sends every reference result through the real tdp server
// and reads it back with the load client, so that the expected statement,
// row and record-byte counts, and the rows the sampled check compares with,
// are what the protocol's own encoder and decoder make of the reference.
func wireExpectations(w *Workload, front [][]*hyperq.FrontResult) ([]*load.Expect, error) {
	h := make(canned.Front, len(w.Texts))
	for id, sql := range w.Texts {
		h[sql] = front[id]
	}
	addr, stop, err := canned.ServeFront(h)
	if err != nil {
		return nil, err
	}
	defer stop()
	c, err := load.Dial(addr, BenchUser)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	out := make([]*load.Expect, len(w.Texts))
	for id, sql := range w.Texts {
		r, err := c.Do(sql, true)
		if err != nil {
			return nil, err
		}
		if r.Failure != "" {
			return nil, fmt.Errorf("reference replay of %q: %s", sql, r.Failure)
		}
		e := &load.Expect{Statements: r.Statements, Rows: r.Rows, RecordBytes: r.RecordBytes}
		for si, fr := range front[id] {
			st := load.ExpectStatement{Cols: fr.Cols, Parcels: r.Records[si]}
			for _, payload := range r.Records[si] {
				row, err := tdp.DecodeRow(fr.Cols, payload)
				if err != nil {
					return nil, fmt.Errorf("reference replay of %q: %w", sql, err)
				}
				st.Rows = append(st.Rows, row)
			}
			e.Stmts = append(e.Stmts, st)
		}
		out[id] = e
	}
	return out, nil
}
