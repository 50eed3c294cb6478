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

// tagKinds is the column type tag in the batch header of each kind: its
// index.
var tagKinds = [...]types.Kind{
	types.KindNull, types.KindBool, types.KindInt, types.KindBigInt,
	types.KindFloat, types.KindDecimal, types.KindChar, types.KindVarChar,
	types.KindDate, types.KindTime, types.KindTimestamp, types.KindPeriod,
	types.KindBytes, types.KindInterval,
}

func kindToTag(k types.Kind) (uint8, error) {
	for tag, kind := range tagKinds {
		if kind == k {
			return uint8(tag), nil
		}
	}
	return 0, fmt.Errorf("tdf: unsupported kind %v", k)
}

func tagToKind(t uint8) (types.Kind, error) {
	if int(t) >= len(tagKinds) {
		return 0, fmt.Errorf("tdf: unknown type tag %d", t)
	}
	return tagKinds[t], nil
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
// batch DecodeBytes, Adopt or EncodeRaw produced is owned by whoever holds it:
// its rows sit in recycled memory the holder may overwrite and, once nothing
// reads the rows any more, hand back with Release.
//
// A batch Adopt or EncodeRaw produced is raw until DecodeRows: its rows are
// still TDF bytes, Rows is nil, and Raw locates every cell in them.
type Batch struct {
	Cols []ColumnMeta
	Rows [][]types.Datum

	// mem is the pooled memory the batch's rows are in: set by DecodeBytes
	// and Adopt, cleared by Release, nil on every shared batch. raw: the rows
	// are mem's TDF bytes, not yet decoded into its cells.
	mem *slab
	raw bool
	// size is EncodedSize as DecodeBytes or Adopt counted it; 0 on a shared
	// batch.
	size int
}

// slab is the memory of one owned batch: the TDF bytes Adopt took over and
// the cell index over them, the datum cells of every row and the row index
// over those.
type slab struct {
	RawRows
	nrows int  // in RawRows
	text  bool // a column of RawRows holds strings

	cells []types.Datum
	rows  [][]types.Datum
}

// RawRows is a raw batch's rows as Adopt's walk over them found them. It
// reads the batch's own memory: it is valid until Release, and nobody may
// write to it.
type RawRows struct {
	// Bytes is the batch as it arrived; the cells index it.
	Bytes []byte
	// Cells is one Cell per cell, row after row, len(Cols) to a row.
	Cells []Cell
	// MaxRow is the encoded size of the largest row.
	MaxRow int
}

// slabs recycles batch memory. A slab comes back with the previous batch's
// bytes and cells still in it (strings included, which keeps that batch's
// text alive until the cells are overwritten or the pool is collected):
// DecodeBytes stores every cell it hands out, and Adopt hands the buffer back
// to its caller for the next read.
var slabs = sync.Pool{New: func() any { return new(slab) }}

// maxPooledRaw bounds the buffer and index a pooled slab keeps: a batch is a
// few hundred KB, a rare giant message's memory is left to the collector.
const maxPooledRaw = 1 << 20

// Release hands an owned batch's row memory back for the next decode and
// leaves the batch without rows, so a reader that comes late finds none
// rather than another batch's. Rows must not be referenced by anyone when it
// is called. It does nothing on a shared batch or a second time.
func (b *Batch) Release() {
	m := b.mem
	if m == nil {
		return
	}
	b.mem, b.raw, b.Rows = nil, false, nil
	if cap(m.Bytes) > maxPooledRaw {
		m.Bytes = nil
	}
	if cap(m.Cells) > maxPooledRaw/8 {
		m.Cells = nil
	}
	slabs.Put(m)
}

// Len returns the number of rows in the batch, decoded or raw.
func (b *Batch) Len() int {
	if b.raw {
		return b.mem.nrows
	}
	return len(b.Rows)
}

// Raw returns the rows of a raw batch; ok is false on a batch that is not
// raw.
func (b *Batch) Raw() (rows RawRows, ok bool) {
	if !b.raw {
		return RawRows{}, false
	}
	return b.mem.RawRows, true
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
// they are in DecodeBytes; so is a present cell of another kind than its
// column's (INTEGER and BIGINT, and CHAR and VARCHAR, stand for each other),
// or a DECIMAL at another scale, whose value the column's encoding would
// lose.
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
		for i := range row {
			d, t := &row[i], &b.Cols[i].Type
			if d.Null {
				dst = append(dst, 0)
				continue
			}
			if !holds(t, d) {
				return nil, fmt.Errorf("tdf: column %s: a %v cell in a %v column", b.Cols[i].Name, d.Type(), *t)
			}
			dst = append(dst, 1)
			switch t.Kind {
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

// holds reports whether a column of type t can encode the present cell d:
// d has t's kind, up to INTEGER/BIGINT and CHAR/VARCHAR, and a DECIMAL has
// the scale a decoded cell of t carries.
func holds(t *types.T, d *types.Datum) bool {
	switch d.K {
	case t.Kind:
		return t.Kind != types.KindDecimal || d.Scale == int8(t.Scale)
	case types.KindInt, types.KindBigInt:
		return t.Kind == types.KindInt || t.Kind == types.KindBigInt
	case types.KindChar, types.KindVarChar:
		return t.Kind == types.KindChar || t.Kind == types.KindVarChar
	}
	return false
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
	b, _, err := Adopt(p)
	if err != nil {
		return nil, err
	}
	b.DecodeRows()
	// The batch may be kept, never released: it must not alias p, nor pin a
	// buffer of the pool's.
	b.mem.Bytes = nil
	return b, nil
}

// Adopt takes over the batch p holds without decoding it: the batch it
// returns is raw and owned (see Batch), and p is the batch's until Release,
// so nothing is copied. p is checked as DecodeBytes checks it — header, every
// presence byte and length, nothing after the end — and refused for whatever
// DecodeBytes refuses, and EncodedSize counts what DecodeBytes would. spare
// is a buffer for the caller's next read, recycled from a released batch; it
// may be nil. On error p is still the caller's and comes back as spare.
func Adopt(p []byte) (b *Batch, spare []byte, err error) {
	return adopt(p, nil)
}

// AdoptAs is Adopt for a batch expected to describe its columns as cols (its
// result's metadata, say): when its header does, the batch shares cols, which
// must then not be written to, instead of parsing columns of its own.
func AdoptAs(p []byte, cols []ColumnMeta) (b *Batch, spare []byte, err error) {
	return adopt(p, cols)
}

func adopt(p []byte, want []ColumnMeta) (b *Batch, spare []byte, err error) {
	cols, off, nr, hasText, err := parseHeader(p, want)
	if err != nil {
		return nil, p, err
	}
	m := slabs.Get().(*slab)
	size, err := m.locate(p, off, cols, nr)
	if err != nil {
		slabs.Put(m)
		return nil, p, err
	}
	spare = m.Bytes
	m.Bytes, m.nrows, m.text = p, nr, hasText
	return &Batch{Cols: cols, mem: m, raw: true, size: size}, spare, nil
}

// EncodeRaw makes dst the raw batch Adopt would make of b's encoding — the
// bytes Encode writes, checked as Encode checks them — in pooled memory
// instead of a buffer of the caller's. dst is owned by its holder until
// Release, and shares b's columns.
func (b *Batch) EncodeRaw(dst *Batch) error {
	m := slabs.Get().(*slab)
	p, err := b.appendTo(m.Bytes[:0])
	if err != nil {
		slabs.Put(m)
		return err
	}
	off, text := 12, false
	for _, c := range b.Cols {
		off += 7 + len(c.Name)
		text = text || cellWidths[c.Type.Kind] == varWidth
	}
	size, err := m.locate(p, off, b.Cols, len(b.Rows))
	if err != nil {
		slabs.Put(m)
		return err
	}
	m.Bytes, m.nrows, m.text = p, len(b.Rows), text
	*dst = Batch{Cols: b.Cols, mem: m, raw: true, size: size}
	return nil
}

// DecodeRows decodes a raw batch's rows into Rows, from the bytes it holds
// and the cells Adopt located and checked, in the batch's own memory and as
// DecodeBytes lays them out. It does nothing on a batch that is not raw.
func (b *Batch) DecodeRows() {
	if !b.raw {
		return
	}
	m, ncols := b.mem, len(b.Cols)
	m.grow(m.nrows, ncols)
	var text string // same offsets as the bytes
	if m.text {
		text = string(m.Bytes)
	}
	for ri := range m.rows {
		fillRow(m.row(ri, ncols), b.Cols, m.Cells[ri*ncols:(ri+1)*ncols], m.Bytes, text)
	}
	b.Rows, b.raw = m.rows, false
}

// parseHeader reads the header of the batch p holds: its columns, the offset
// of its first row, its row count and whether a column holds strings. The row
// count is bounded by the bytes after the header. When the header describes
// exactly the columns want, cols is want, and reading them allocates nothing.
func parseHeader(p []byte, want []ColumnMeta) (cols []ColumnMeta, off, nrows int, hasText bool, err error) {
	le := binary.LittleEndian
	if len(p) < 12 {
		return nil, 0, 0, false, errTruncated
	}
	if len(p) > math.MaxInt32 { // a Cell's offsets are 32 bits
		return nil, 0, 0, false, fmt.Errorf("tdf: a batch of %d bytes is too large", len(p))
	}
	if le.Uint32(p) != Magic {
		return nil, 0, 0, false, fmt.Errorf("tdf: bad magic")
	}
	nc, nr := le.Uint32(p[4:]), le.Uint32(p[8:])
	off = 12
	if uint64(nc) > uint64(len(p)-off)/7 {
		return nil, 0, 0, false, fmt.Errorf("tdf: %d columns in %d bytes: %w", nc, len(p), errTruncated)
	}
	same := nc > 0 && len(want) == int(nc) // cols is want so far
	if !same {
		cols = make([]ColumnMeta, nc)
	}
	for i := 0; i < int(nc); i++ {
		if len(p)-off < 7 {
			return nil, 0, 0, false, errTruncated
		}
		kind, err := tagToKind(p[off])
		if err != nil {
			return nil, 0, 0, false, err
		}
		aux := int32(le.Uint32(p[off+1:]))
		nameLen := int(le.Uint16(p[off+5:]))
		off += 7
		if len(p)-off < nameLen {
			return nil, 0, 0, false, errTruncated
		}
		t := types.T{Kind: kind}
		switch kind {
		case types.KindDecimal:
			t.Scale = int(aux)
			t.Precision = 18
		case types.KindPeriod:
			if t.Elem, err = tagToKind(uint8(aux)); err != nil {
				return nil, 0, 0, false, err
			}
		case types.KindChar, types.KindVarChar, types.KindBytes:
			hasText = true
		}
		name := p[off : off+nameLen]
		off += nameLen
		if same && (t != want[i].Type || string(name) != want[i].Name) {
			same = false
			cols = make([]ColumnMeta, nc)
			copy(cols, want[:i])
		}
		if !same {
			cols[i] = ColumnMeta{Name: string(name), Type: t}
		}
	}
	if same {
		cols = want
	}
	if nc == 0 && nr != 0 || nc != 0 && uint64(nr) > uint64(len(p)-off)/uint64(nc) {
		return nil, 0, 0, false, fmt.Errorf("tdf: %d rows of %d columns in %d bytes: %w", nr, nc, len(p)-off, errTruncated)
	}
	return cols, off, int(nr), hasText, nil
}

// rowsSize is EncodedSize of a batch of nrows rows of cols before its string
// bytes are counted.
func rowsSize(cols []ColumnMeta, nrows int) int {
	return headerSize(cols) + nrows*(4+len(cols)+9*len(cols))
}

// locate is Adopt's walk: it locates every cell of the nrows rows that start
// at p[off:] and must end where p does, checking them as decodeRows would
// decode them, and returns the batch's EncodedSize.
func (m *slab) locate(p []byte, off int, cols []ColumnMeta, nrows int) (int, error) {
	ncols := len(cols)
	if cap(m.Cells) < nrows*ncols {
		m.Cells = make([]Cell, nrows*ncols)
	}
	m.Cells, m.MaxRow = m.Cells[:nrows*ncols], 0
	size := rowsSize(cols, nrows)
	var stack [32]int8
	widths := colWidths(&stack, cols)
	for ri := 0; ri < nrows; ri++ {
		next, strBytes, err := walkRow(p, off, widths, m.Cells[ri*ncols:(ri+1)*ncols])
		if err != nil {
			return 0, err
		}
		m.MaxRow = max(m.MaxRow, next-off)
		off, size = next, size+strBytes
	}
	if off != len(p) {
		return 0, fmt.Errorf("tdf: %d bytes after the batch", len(p)-off)
	}
	return size, nil
}

// varWidth is cellWidths' answer for a length-prefixed value.
const varWidth = -1

// cellWidths is the size of a present cell's value by kind: 8 for the
// integral kinds and FLOAT, 16 for PERIOD (start, end), varWidth for strings,
// 0 for NULL and for anything that is no kind.
var cellWidths = func() (w [256]int8) {
	for _, k := range []types.Kind{types.KindBool, types.KindInt, types.KindBigInt, types.KindDate, types.KindTime,
		types.KindTimestamp, types.KindDecimal, types.KindInterval, types.KindFloat} {
		w[k] = 8
	}
	w[types.KindPeriod] = 16
	w[types.KindChar], w[types.KindVarChar], w[types.KindBytes] = varWidth, varWidth, varWidth
	return w
}()

// colWidths returns cellWidths of each column: in stack for up to 32
// columns.
func colWidths(stack *[32]int8, cols []ColumnMeta) []int8 {
	widths := stack[:0]
	if len(cols) > len(stack) {
		widths = make([]int8, 0, len(cols))
	}
	for _, c := range cols {
		widths = append(widths, cellWidths[c.Type.Kind])
	}
	return widths
}

// A Cell is where one cell's value lies in its batch: Len bytes at Off,
// after the presence byte and a string's length. Off is -1 for a NULL cell
// (presence byte 0). A value is the little-endian 64-bit value of the
// integral kinds and FLOAT, a PERIOD's two of them, a string's bytes, nothing
// for a NULL-typed column.
type Cell struct{ Off, Len int32 }

// walkRow locates the cells of the row that starts at p[off:], of columns
// whose cellWidths are widths, and returns where the next row starts and how
// many string bytes the row holds. A row that does not fit in what is left of
// p is an error. It is the one reader of the TDF cell layout: Adopt's index
// and DecodeBytes walk through it, a call per row; it stores no pointer.
func walkRow(p []byte, off int, widths []int8, cells []Cell) (next, strBytes int, err error) {
	cells = cells[:len(widths)]
	for i, w := range widths {
		if off >= len(p) {
			return 0, 0, errTruncated
		}
		present := p[off] != 0
		off++
		if !present {
			cells[i] = Cell{Off: -1}
			continue
		}
		n := int(w)
		if n == varWidth {
			if len(p)-off < 4 {
				return 0, 0, errTruncated
			}
			n = int(binary.LittleEndian.Uint32(p[off:]))
			off += 4
			if uint(n) > uint(len(p)-off) {
				return 0, 0, fmt.Errorf("tdf: string of %d bytes with %d left: %w", n, len(p)-off, errTruncated)
			}
			strBytes += n
		} else if n > len(p)-off {
			return 0, 0, errTruncated
		}
		cells[i] = Cell{Off: int32(off), Len: int32(n)}
		off += n
	}
	return off, strBytes, nil
}

// grow sizes the slab for nrows rows of ncols cells. Its previous contents
// are arbitrary: the caller stores every cell and, with row, every row
// header it hands out.
func (m *slab) grow(nrows, ncols int) {
	if cap(m.cells) < nrows*ncols {
		m.cells = make([]types.Datum, nrows*ncols)
	}
	if cap(m.rows) < nrows {
		m.rows = make([][]types.Datum, nrows)
	}
	m.cells, m.rows = m.cells[:nrows*ncols], m.rows[:nrows]
}

// row lays out row ri of ncols cells and returns it.
func (m *slab) row(ri, ncols int) []types.Datum {
	row := m.cells[ri*ncols : (ri+1)*ncols : (ri+1)*ncols]
	m.rows[ri] = row
	return row
}

// fillRow stores every cell of one row, located in p by cells, in row, its
// strings cut from text (p's copy).
func fillRow(row []types.Datum, cols []ColumnMeta, cells []Cell, p []byte, text string) {
	for ci, c := range cells {
		c.store(&row[ci], &cols[ci].Type, p, text)
	}
}

// Value returns the cell c locates in p, the bytes of a raw batch
// (RawRows), as DecodeBytes decodes a cell of a column of type t; a string is
// a copy.
func (c Cell) Value(t *types.T, p []byte) types.Datum {
	var d types.Datum
	c.store(&d, t, p, "")
	return d
}

// store decodes the cell into d, a string cut from text (p's copy), or
// copied when text is "".
func (c Cell) store(d *types.Datum, t *types.T, p []byte, text string) {
	if c.Off < 0 {
		*d = types.Datum{K: t.Kind, Null: true}
		return
	}
	le := binary.LittleEndian
	val := p[c.Off : c.Off+c.Len]
	switch t.Kind {
	case types.KindBool, types.KindInt, types.KindBigInt, types.KindDate,
		types.KindTime, types.KindTimestamp, types.KindDecimal, types.KindInterval:
		// Scale is zero except for DECIMAL.
		*d = types.Datum{K: t.Kind, I: int64(le.Uint64(val)), Scale: int8(t.Scale)}
	case types.KindFloat:
		*d = types.Datum{K: t.Kind, F: math.Float64frombits(le.Uint64(val))}
	case types.KindChar, types.KindVarChar, types.KindBytes:
		if text == "" {
			*d = types.Datum{K: t.Kind, S: string(val)}
		} else {
			*d = types.Datum{K: t.Kind, S: text[c.Off : c.Off+c.Len]}
		}
	case types.KindPeriod:
		*d = types.NewPeriod(t.Elem, int64(le.Uint64(val)), int64(le.Uint64(val[8:])))
	default:
		*d = types.Datum{K: t.Kind, Null: true}
	}
}
