// Package tdf implements Hyper-Q's Tabular Data Format (§4.5): the binary
// data representation result batches are packaged in between the ODBC
// Server and the Result Converter. TDF is "an extensible binary format that
// is able [to] handle arbitrarily large nested data"; batches are retrieved
// on demand, and the gateway bounds how many are resident at once (§4.6).
package tdf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"hyperq/internal/types"
)

// Magic identifies a TDF batch header.
const Magic = 0x54444631 // "TDF1"

// Column type tags in the batch header.
const (
	tagNull uint8 = iota
	tagBool
	tagInt
	tagBigInt
	tagFloat
	tagDecimal
	tagChar
	tagVarChar
	tagDate
	tagTime
	tagTimestamp
	tagPeriod
	tagBytes
	tagInterval
)

func kindToTag(k types.Kind) (uint8, error) {
	switch k {
	case types.KindNull:
		return tagNull, nil
	case types.KindBool:
		return tagBool, nil
	case types.KindInt:
		return tagInt, nil
	case types.KindBigInt:
		return tagBigInt, nil
	case types.KindFloat:
		return tagFloat, nil
	case types.KindDecimal:
		return tagDecimal, nil
	case types.KindChar:
		return tagChar, nil
	case types.KindVarChar:
		return tagVarChar, nil
	case types.KindDate:
		return tagDate, nil
	case types.KindTime:
		return tagTime, nil
	case types.KindTimestamp:
		return tagTimestamp, nil
	case types.KindPeriod:
		return tagPeriod, nil
	case types.KindBytes:
		return tagBytes, nil
	case types.KindInterval:
		return tagInterval, nil
	}
	return 0, fmt.Errorf("tdf: unsupported kind %v", k)
}

func tagToKind(t uint8) (types.Kind, error) {
	kinds := []types.Kind{
		types.KindNull, types.KindBool, types.KindInt, types.KindBigInt,
		types.KindFloat, types.KindDecimal, types.KindChar, types.KindVarChar,
		types.KindDate, types.KindTime, types.KindTimestamp, types.KindPeriod,
		types.KindBytes, types.KindInterval,
	}
	if int(t) >= len(kinds) {
		return 0, fmt.Errorf("tdf: unknown type tag %d", t)
	}
	return kinds[t], nil
}

// ColumnMeta describes one column of a batch.
type ColumnMeta struct {
	Name string
	Type types.T
}

// Batch is one unit of result data: schema plus rows.
//
// A batch built by hand (a literal, an engine result, a canned reply) is
// shared: any number of readers may hold it and nobody may write to it. A
// batch DecodeBytes produced is owned by whoever holds it: its rows sit in
// recycled memory the holder may overwrite and, once nothing reads the rows
// any more, hand back with Release.
type Batch struct {
	Cols []ColumnMeta
	Rows [][]types.Datum

	// mem is the pooled memory Rows is laid out in: set by DecodeBytes,
	// cleared by Release, nil on every shared batch.
	mem *slab
	// size is EncodedSize as DecodeBytes counted it; 0 on a shared batch.
	size int
}

// slab is the memory of one decoded batch: the cells of every row and the
// row index over them.
type slab struct {
	cells []types.Datum
	rows  [][]types.Datum
}

// slabs recycles decode memory between batches. A slab comes back with the
// previous batch's cells still in it (strings included, which keeps that
// batch's text alive until the cells are overwritten or the pool is
// collected): DecodeBytes stores every cell it hands out.
var slabs = sync.Pool{New: func() any { return new(slab) }}

// Owned reports whether the holder may write to the batch's rows and release
// them: true only for a batch DecodeBytes produced that was not released.
func (b *Batch) Owned() bool { return b.mem != nil }

// Release hands an owned batch's row memory back for the next decode and
// leaves the batch without rows, so a reader that comes late finds none
// rather than another batch's. Rows must not be referenced by anyone when it
// is called. It does nothing on a shared batch or a second time.
func (b *Batch) Release() {
	if b.mem == nil {
		return
	}
	m := b.mem
	b.mem, b.Rows = nil, nil
	slabs.Put(m)
}

// EncodedSize estimates the wire size of the batch (used for result memory
// accounting). A decoded batch answers with what the decoder counted off the
// wire, whatever was done to its cells since.
func (b *Batch) EncodedSize() int {
	if b.size != 0 {
		return b.size
	}
	size := headerSize(b.Cols)
	for _, row := range b.Rows {
		size += 4 + len(row) // presence bytes
		for _, d := range row {
			size += 9
			size += len(d.S)
		}
	}
	return size
}

func headerSize(cols []ColumnMeta) int {
	size := 16
	for _, c := range cols {
		size += 8 + len(c.Name)
	}
	return size
}

// Encode writes the batch in TDF framing:
//
//	u32 magic, u32 ncols, u32 nrows
//	per column: u8 tag, i32 scale/elem, u16 namelen, name
//	per row: per column: u8 present, then the value encoding
//
// Value encodings: fixed 8-byte little-endian integers for integral kinds,
// IEEE754 bits for FLOAT, u32-length-prefixed bytes for strings, two 8-byte
// values for PERIOD.
func (b *Batch) Encode(w io.Writer) error {
	p, err := b.appendTo(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(p)
	return err
}

// appendTo appends the batch's encoding to dst. Rows without columns have no
// encoding a decoder could bound by its input, so they are refused here as
// they are in DecodeBytes.
func (b *Batch) appendTo(dst []byte) ([]byte, error) {
	if len(b.Cols) == 0 && len(b.Rows) > 0 {
		return nil, fmt.Errorf("tdf: %d rows without columns", len(b.Rows))
	}
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, Magic)
	dst = le.AppendUint32(dst, uint32(len(b.Cols)))
	dst = le.AppendUint32(dst, uint32(len(b.Rows)))
	for _, c := range b.Cols {
		tag, err := kindToTag(c.Type.Kind)
		if err != nil {
			return nil, err
		}
		aux := int32(c.Type.Scale)
		if c.Type.Kind == types.KindPeriod {
			t2, err := kindToTag(c.Type.Elem)
			if err != nil {
				return nil, err
			}
			aux = int32(t2)
		}
		dst = append(dst, tag)
		dst = le.AppendUint32(dst, uint32(aux))
		dst = le.AppendUint16(dst, uint16(len(c.Name)))
		dst = append(dst, c.Name...)
	}
	for _, row := range b.Rows {
		if len(row) != len(b.Cols) {
			return nil, fmt.Errorf("tdf: row arity %d != %d", len(row), len(b.Cols))
		}
		for i, d := range row {
			if d.Null {
				dst = append(dst, 0)
				continue
			}
			dst = append(dst, 1)
			switch b.Cols[i].Type.Kind {
			case types.KindBool, types.KindInt, types.KindBigInt, types.KindDate,
				types.KindTime, types.KindTimestamp, types.KindDecimal, types.KindInterval:
				dst = le.AppendUint64(dst, uint64(d.I))
			case types.KindFloat:
				dst = le.AppendUint64(dst, math.Float64bits(d.F))
			case types.KindChar, types.KindVarChar, types.KindBytes:
				dst = le.AppendUint32(dst, uint32(len(d.S)))
				dst = append(dst, d.S...)
			case types.KindPeriod:
				dst = le.AppendUint64(dst, uint64(d.PStart))
				dst = le.AppendUint64(dst, uint64(d.PEnd))
			}
		}
	}
	return dst, nil
}

var errTruncated = fmt.Errorf("tdf: truncated batch: %w", io.ErrUnexpectedEOF)

// Decode reads r to EOF and decodes the one batch it holds; anything after
// that batch is an error. To read batches back to back from one reader,
// frame them and hand each frame to DecodeBytes.
func Decode(r io.Reader) (*Batch, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		// A sized reader (bytes.Reader, bytes.Buffer): one read, no regrowth.
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return DecodeBytes(buf.Bytes())
}

// DecodeBytes decodes the batch p holds; p must end where the batch does.
// The batch does not alias p and is owned by the caller (see Batch). Its cost
// is a handful of allocations however many rows it holds: every row is a
// window of one []Datum slab — recycled from a released batch when there is
// one, so a consumer that releases what it decodes allocates no slab at all —
// and every string cell a substring of one copy of p, so a string cell keeps
// that copy alive for as long as the cell is referenced.
//
// Counts and lengths in p are untrusted: each is checked against the bytes
// that remain (a cell occupies at least its presence byte) before anything
// is allocated for it.
func DecodeBytes(p []byte) (*Batch, error) {
	le := binary.LittleEndian
	if len(p) < 12 {
		return nil, errTruncated
	}
	if le.Uint32(p) != Magic {
		return nil, fmt.Errorf("tdf: bad magic")
	}
	nc, nr := le.Uint32(p[4:]), le.Uint32(p[8:])
	off := 12
	if uint64(nc) > uint64(len(p)-off)/7 {
		return nil, fmt.Errorf("tdf: %d columns in %d bytes: %w", nc, len(p), errTruncated)
	}
	cols := make([]ColumnMeta, nc)
	hasText := false
	for i := range cols {
		if len(p)-off < 7 {
			return nil, errTruncated
		}
		kind, err := tagToKind(p[off])
		if err != nil {
			return nil, err
		}
		aux := int32(le.Uint32(p[off+1:]))
		nameLen := int(le.Uint16(p[off+5:]))
		off += 7
		if len(p)-off < nameLen {
			return nil, errTruncated
		}
		t := types.T{Kind: kind}
		switch kind {
		case types.KindDecimal:
			t.Scale = int(aux)
			t.Precision = 18
		case types.KindPeriod:
			if t.Elem, err = tagToKind(uint8(aux)); err != nil {
				return nil, err
			}
		case types.KindChar, types.KindVarChar, types.KindBytes:
			hasText = true
		}
		cols[i] = ColumnMeta{Name: string(p[off : off+nameLen]), Type: t}
		off += nameLen
	}
	if nc == 0 && nr != 0 || nc != 0 && uint64(nr) > uint64(len(p)-off)/uint64(nc) {
		return nil, fmt.Errorf("tdf: %d rows of %d columns in %d bytes: %w", nr, nc, len(p)-off, errTruncated)
	}
	m := slabs.Get().(*slab)
	size, err := m.decodeRows(p, off, cols, int(nr), hasText)
	if err != nil {
		slabs.Put(m)
		return nil, err
	}
	return &Batch{Cols: cols, Rows: m.rows, mem: m, size: size}, nil
}

// decodeRows decodes the nrows rows that start at p[off:] and must end where
// p does into the slab, growing it when it is too small, and returns the
// batch's EncodedSize. The slab's previous contents are arbitrary: every cell
// and every row header handed out is stored whole.
func (m *slab) decodeRows(p []byte, off int, cols []ColumnMeta, nrows int, hasText bool) (int, error) {
	le := binary.LittleEndian
	ncols := len(cols)
	var text string // same offsets as p
	if hasText {
		text = string(p)
	}
	if cap(m.cells) < nrows*ncols {
		m.cells = make([]types.Datum, nrows*ncols)
	}
	if cap(m.rows) < nrows {
		m.rows = make([][]types.Datum, nrows)
	}
	m.cells, m.rows = m.cells[:nrows*ncols], m.rows[:nrows]
	size := headerSize(cols) + nrows*(4+ncols+9*ncols)
	for ri := range m.rows {
		row := m.cells[ri*ncols : (ri+1)*ncols : (ri+1)*ncols]
		m.rows[ri] = row
		for ci := range row {
			if off >= len(p) {
				return 0, errTruncated
			}
			t := &cols[ci].Type
			d := &row[ci]
			off++
			if p[off-1] == 0 {
				*d = types.Datum{K: t.Kind, Null: true}
				continue
			}
			switch t.Kind {
			case types.KindBool, types.KindInt, types.KindBigInt, types.KindDate,
				types.KindTime, types.KindTimestamp, types.KindDecimal, types.KindInterval:
				if len(p)-off < 8 {
					return 0, errTruncated
				}
				// Scale is zero except for DECIMAL.
				*d = types.Datum{K: t.Kind, I: int64(le.Uint64(p[off:])), Scale: int8(t.Scale)}
				off += 8
			case types.KindFloat:
				if len(p)-off < 8 {
					return 0, errTruncated
				}
				*d = types.Datum{K: t.Kind, F: math.Float64frombits(le.Uint64(p[off:]))}
				off += 8
			case types.KindChar, types.KindVarChar, types.KindBytes:
				if len(p)-off < 4 {
					return 0, errTruncated
				}
				n := int(le.Uint32(p[off:]))
				off += 4
				if uint64(n) > uint64(len(p)-off) {
					return 0, fmt.Errorf("tdf: string of %d bytes with %d left: %w", n, len(p)-off, errTruncated)
				}
				*d = types.Datum{K: t.Kind, S: text[off : off+n]}
				off += n
				size += n
			case types.KindPeriod:
				if len(p)-off < 16 {
					return 0, errTruncated
				}
				*d = types.NewPeriod(t.Elem, int64(le.Uint64(p[off:])), int64(le.Uint64(p[off+8:])))
				off += 16
			case types.KindNull:
				*d = types.Datum{K: t.Kind, Null: true}
			}
		}
	}
	if off != len(p) {
		return 0, fmt.Errorf("tdf: %d bytes after the batch", len(p)-off)
	}
	return size, nil
}
