package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"hyperq/internal/israce"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, 0x42, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ReadMessage(&buf)
	if err != nil || kind != 0x42 || string(payload) != "hello" {
		t.Fatalf("round trip: %x %q %v", kind, payload, err)
	}
}

func TestMessageEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, 0x01, nil); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ReadMessage(&buf)
	if err != nil || kind != 0x01 || len(payload) != 0 {
		t.Fatalf("empty round trip: %x %q %v", kind, payload, err)
	}
}

func TestMessageSizeLimit(t *testing.T) {
	big := make([]byte, MaxMessageSize+1)
	if err := WriteMessage(&bytes.Buffer{}, 0x01, big); err == nil {
		t.Error("oversized write accepted")
	}
	// A forged oversized header must be rejected on read.
	var buf bytes.Buffer
	buf.Write([]byte{0x01, 0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadMessage(&buf); err == nil {
		t.Error("oversized read accepted")
	}
}

func TestMessageTruncated(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteMessage(&buf, 0x05, []byte("abcdef"))
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, _, err := ReadMessage(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated message accepted")
	}
}

func TestBufferReaderRoundTrip(t *testing.T) {
	var b Buffer
	b.PutU8(7)
	b.PutU32(567890)
	b.PutU64(1 << 40)
	b.PutI64(-42)
	b.PutString("héllo")
	b.PutBytes([]byte{1, 2, 3})
	r := NewReader(b.Bytes())
	if r.U8() != 7 || r.U32() != 567890 || r.U64() != 1<<40 {
		t.Fatal("unsigned round trip failed")
	}
	if r.I64() != -42 {
		t.Fatal("signed round trip failed")
	}
	if r.String() != "héllo" {
		t.Fatal("string round trip failed")
	}
	if got := r.Bytes(); len(got) != 3 || got[0] != 1 {
		t.Fatal("bytes round trip failed")
	}
	if r.Err() != nil {
		t.Fatalf("err = %v", r.Err())
	}
}

func TestReaderTruncation(t *testing.T) {
	r := NewReader([]byte{0x00, 0x01})
	_ = r.U32()
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "truncated") {
		t.Fatalf("err = %v", r.Err())
	}
	// After an error, further reads are inert.
	if r.U64() != 0 || r.String() != "" {
		t.Error("reads after error not inert")
	}
}

// Property: any string survives Buffer/Reader round trip.
func TestStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		var b Buffer
		b.PutString(s)
		return NewReader(b.Bytes()).String() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleMessagesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := byte(0); i < 5; i++ {
		if err := WriteMessage(&buf, i, []byte{i, i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(0); i < 5; i++ {
		kind, payload, err := ReadMessage(&buf)
		if err != nil || kind != i || payload[0] != i {
			t.Fatalf("message %d: %x %v %v", i, kind, payload, err)
		}
	}
}

// countWriter counts the Writes a frame takes.
type countWriter struct {
	bytes.Buffer
	writes int
}

func (w *countWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// A small frame leaves in one Write (one syscall and one segment on an
// unbuffered socket); a large payload is not copied to save the second.
func TestWriteMessageCoalescesSmallFrames(t *testing.T) {
	for _, tc := range []struct{ size, writes int }{{0, 1}, {64, 1}, {coalesceLimit, 1}, {coalesceLimit + 1, 2}} {
		var w countWriter
		payload := bytes.Repeat([]byte{'x'}, tc.size)
		if err := WriteMessage(&w, 0x16, payload); err != nil {
			t.Fatal(err)
		}
		if w.writes != tc.writes {
			t.Errorf("%d-byte payload: %d writes, want %d", tc.size, w.writes, tc.writes)
		}
		kind, got, err := ReadMessage(&w.Buffer)
		if err != nil || kind != 0x16 || !bytes.Equal(got, payload) {
			t.Errorf("%d-byte payload: read back kind %x, %d bytes, %v", tc.size, kind, len(got), err)
		}
	}
}

// Input that ends before a message, or right after its header, is io.EOF
// (io.ReadFull's report of a read that got nothing — callers that know they
// are mid-request map it); input that ends inside the header or the payload
// is io.ErrUnexpectedEOF.
func TestReadMessageTruncated(t *testing.T) {
	var full bytes.Buffer
	_ = WriteMessage(&full, 0x05, []byte("abcdef"))
	for n := 0; n < full.Len(); n++ {
		want := io.ErrUnexpectedEOF
		if n == 0 || n == 5 {
			want = io.EOF
		}
		if _, _, err := ReadMessage(bytes.NewReader(full.Bytes()[:n])); !errors.Is(err, want) {
			t.Errorf("%d bytes: err = %v, want %v", n, err, want)
		}
	}
}

func TestReadMessageIntoReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteMessage(&buf, 1, []byte("first"))
	_ = WriteMessage(&buf, 2, []byte("second, longer than the buffer"))
	scratch := make([]byte, 0, 8)
	_, p, err := ReadMessageInto(&buf, scratch)
	if err != nil || string(p) != "first" || &p[0] != &scratch[:1][0] {
		t.Fatalf("fitting payload not read into the buffer: %q %v", p, err)
	}
	_, p, err = ReadMessageInto(&buf, scratch)
	if err != nil || string(p) != "second, longer than the buffer" {
		t.Fatalf("larger payload: %q %v", p, err)
	}
}

// One message through the framing costs one allocation, the payload read:
// the frame written and the header scratch are recycled.
func TestFrameAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's runtime changes allocation counts")
	}
	payload := bytes.Repeat([]byte{'x'}, 64)
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := WriteMessage(&buf, 0x16, payload); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadMessage(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("%.0f allocations per message, want <= 1", allocs)
	}
}
