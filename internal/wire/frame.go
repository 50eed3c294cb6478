// Package wire provides the shared message framing used by both wire
// protocols in the system: the frontend protocol the unmodified client
// application speaks (WP-A, package tdp) and the backend protocol of the
// cloud engine (WP-B, package cwp). Framing is a 1-byte message kind, a
// 4-byte big-endian payload length, and the payload.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// MaxMessageSize bounds a single message payload (64 MiB).
const MaxMessageSize = 64 << 20

// coalesceLimit is the largest payload WriteMessage copies behind its header
// so the frame leaves in one Write: on an unbuffered socket two Writes are
// two syscalls and, with TCP_NODELAY, two segments. Above it the copy costs
// more than the second Write.
const coalesceLimit = 4 << 10

// frames recycles WriteMessage's frame buffers: a frame handed to Write
// through the io.Writer interface escapes, and writing a message should cost
// no allocation.
var frames = sync.Pool{New: func() any { return new([]byte) }}

// AppendMessage appends one framed message — kind, the payload's big-endian
// length, the payload — to dst: the framing for a caller that writes into a
// buffer of its own. The payload must not exceed MaxMessageSize.
func AppendMessage(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// WriteMessage frames and writes one message.
func WriteMessage(w io.Writer, kind byte, payload []byte) error {
	if len(payload) > MaxMessageSize {
		return fmt.Errorf("wire: message of %d bytes exceeds limit", len(payload))
	}
	fp := frames.Get().(*[]byte)
	defer frames.Put(fp)
	if len(payload) <= coalesceLimit {
		*fp = AppendMessage((*fp)[:0], kind, payload)
		_, err := w.Write(*fp)
		return err
	}
	*fp = AppendMessage((*fp)[:0], kind, nil)
	binary.BigEndian.PutUint32((*fp)[1:], uint32(len(payload)))
	if _, err := w.Write(*fp); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadMessage reads one framed message.
func ReadMessage(r io.Reader) (byte, []byte, error) {
	return ReadMessageInto(r, nil)
}

// headers recycles the 5-byte header scratch of ReadMessageInto: an array
// handed to Read through the io.Reader interface escapes, and a message
// should cost no allocation besides its payload.
var headers = sync.Pool{New: func() any { return new([5]byte) }}

// ReadMessageInto is ReadMessage with the payload read into buf's backing
// array when it is large enough, for a caller that is done with one payload
// before it reads the next.
func ReadMessageInto(r io.Reader, buf []byte) (byte, []byte, error) {
	hdr := headers.Get().(*[5]byte)
	_, err := io.ReadFull(r, hdr[:])
	kind, n := hdr[0], binary.BigEndian.Uint32(hdr[1:])
	headers.Put(hdr)
	if err != nil {
		return 0, nil, err
	}
	if n > MaxMessageSize {
		return 0, nil, fmt.Errorf("wire: message of %d bytes exceeds limit", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return kind, buf, nil
}

// Buffer is a helper for building message payloads.
type Buffer struct {
	b []byte
}

// Bytes returns the accumulated payload.
func (b *Buffer) Bytes() []byte { return b.b }

// Reset empties the buffer, keeping its memory for the next payload.
func (b *Buffer) Reset() { b.b = b.b[:0] }

// PutU8 appends one byte.
func (b *Buffer) PutU8(v uint8) { b.b = append(b.b, v) }

// PutU32 appends a big-endian uint32.
func (b *Buffer) PutU32(v uint32) {
	b.b = binary.BigEndian.AppendUint32(b.b, v)
}

// PutU64 appends a big-endian uint64.
func (b *Buffer) PutU64(v uint64) {
	b.b = binary.BigEndian.AppendUint64(b.b, v)
}

// PutI64 appends a big-endian int64.
func (b *Buffer) PutI64(v int64) { b.PutU64(uint64(v)) }

// PutString appends a u32-length-prefixed string.
func (b *Buffer) PutString(s string) {
	b.PutU32(uint32(len(s)))
	b.b = append(b.b, s...)
}

// PutBytes appends a u32-length-prefixed byte slice.
func (b *Buffer) PutBytes(p []byte) {
	b.PutU32(uint32(len(p)))
	b.b = append(b.b, p...)
}

// Reader decodes message payloads.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(p []byte) *Reader { return &Reader{b: p} }

// Len returns the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Err returns the first decoding error.
func (r *Reader) Err() error { return r.err }

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.b) {
		r.err = fmt.Errorf("wire: truncated message (need %d at %d of %d)", n, r.off, len(r.b))
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// I64 reads a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// String reads a u32-length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U32())
	if !r.need(n) {
		return ""
	}
	v := string(r.b[r.off : r.off+n])
	r.off += n
	return v
}

// Bytes reads a u32-length-prefixed byte slice.
func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	if !r.need(n) {
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}
