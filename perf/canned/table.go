// Package canned is the benchmark's zero-cost backend: a table from SQL-B
// text to the reply a real engine gave once, recorded at set-up and served
// afterwards without executing anything. The same table backs an in-process
// odbc.Driver (for the per-layer pass) and a real cwp TCP server (for the
// over-the-wire pass), so the gateway under test pays for its own work and
// nothing else.
package canned

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"hyperq/internal/tdf"
	"hyperq/internal/wire"
	"hyperq/internal/wire/cwp"
)

// Reply is one SQL-B text's recorded answer in both forms the two backends
// need: the decoded statement results and the same results framed as the
// cwp messages a server writes for them.
type Reply struct {
	Results []*cwp.StatementResult
	// Wire is MsgMeta/MsgBatch/MsgComplete per statement followed by MsgEnd,
	// each framed as wire.WriteMessage frames it.
	Wire []byte
	Rows int
}

// Table maps SQL-B text to its reply. Record is for set-up, before any
// server or executor reads the table; Lookup is safe from many goroutines
// once recording has stopped.
type Table struct {
	replies map[string]*Reply

	mu     sync.Mutex // guards misses only
	misses []string   // first few unknown texts, for the failure report
	nMiss  atomic.Int64
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{replies: make(map[string]*Reply)} }

// Lookup returns the reply recorded for sql. A miss is counted: during a
// timed run it means the gateway produced SQL-B the cold reference never did.
func (t *Table) Lookup(sql string) (*Reply, bool) {
	r, ok := t.replies[sql]
	if !ok {
		t.nMiss.Add(1)
		t.mu.Lock()
		if len(t.misses) < 8 {
			t.misses = append(t.misses, sql)
		}
		t.mu.Unlock()
	}
	return r, ok
}

// Misses reports how many lookups found nothing, with the first few texts.
func (t *Table) Misses() (int64, []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nMiss.Load(), append([]string(nil), t.misses...)
}

// Record stores the reply for sql. Recording the same text twice must yield
// the same bytes: a canned backend can only stand in for statements whose
// answer does not depend on when they run.
func (t *Table) Record(sql string, results []*cwp.StatementResult) error {
	enc, rows, err := EncodeReply(results)
	if err != nil {
		return fmt.Errorf("canned: encode reply to %q: %w", sql, err)
	}
	if old, ok := t.replies[sql]; ok {
		if !bytes.Equal(old.Wire, enc) {
			return fmt.Errorf("canned: %q answered differently on a second recording; its reply depends on state", sql)
		}
		return nil
	}
	t.replies[sql] = &Reply{Results: results, Wire: enc, Rows: rows}
	return nil
}

// Put stores an already encoded reply under sql, replacing any other.
func (t *Table) Put(sql string, r *Reply) { t.replies[sql] = r }

// Texts lists the recorded SQL-B texts in no particular order.
func (t *Table) Texts() []string {
	out := make([]string, 0, len(t.replies))
	for sql := range t.replies {
		out = append(out, sql)
	}
	return out
}

// EncodeReply frames statement results the way the cwp server does: column
// metadata, one TDF batch message per non-empty batch, the completion tag,
// and a final MsgEnd.
func EncodeReply(results []*cwp.StatementResult) ([]byte, int, error) {
	var out bytes.Buffer
	rows := 0
	for _, res := range results {
		if res.Cols != nil {
			var mb wire.Buffer
			mb.PutU32(uint32(len(res.Cols)))
			for _, c := range res.Cols {
				mb.PutString(c.Name)
				mb.PutU8(uint8(c.Type.Kind))
				mb.PutU32(uint32(c.Type.Scale))
				mb.PutU8(uint8(c.Type.Elem))
			}
			if err := wire.WriteMessage(&out, cwp.MsgMeta, mb.Bytes()); err != nil {
				return nil, 0, err
			}
			for _, b := range res.Batches {
				if len(b.Rows) == 0 {
					continue
				}
				rows += len(b.Rows)
				var buf bytes.Buffer
				if err := (&tdf.Batch{Cols: res.Cols, Rows: b.Rows}).Encode(&buf); err != nil {
					return nil, 0, err
				}
				if err := wire.WriteMessage(&out, cwp.MsgBatch, buf.Bytes()); err != nil {
					return nil, 0, err
				}
			}
		}
		var cb wire.Buffer
		cb.PutString(res.Command)
		cb.PutI64(res.Affected)
		if err := wire.WriteMessage(&out, cwp.MsgComplete, cb.Bytes()); err != nil {
			return nil, 0, err
		}
	}
	if err := wire.WriteMessage(&out, cwp.MsgEnd, nil); err != nil {
		return nil, 0, err
	}
	return out.Bytes(), rows, nil
}
