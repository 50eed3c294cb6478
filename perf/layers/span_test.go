package layers

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	r := NewRecorder(100)
	r.On = true
	r.NextRequest()
	endOuter := r.Begin("outer")
	time.Sleep(2 * time.Millisecond)
	endInner := r.Begin("inner")
	time.Sleep(4 * time.Millisecond)
	endInner()
	endOuter()

	outer, n := r.Self("outer")
	inner, m := r.Self("inner")
	if n != 1 || m != 1 {
		t.Fatalf("span counts %d %d", n, m)
	}
	if inner < 4*time.Millisecond {
		t.Errorf("inner self %v, slept 4ms", inner)
	}
	// The outer span lasted at least 6ms; its self time excludes the inner 4.
	if outer < 2*time.Millisecond || outer >= inner {
		t.Errorf("outer self %v should be its own ~2ms, not include inner's %v", outer, inner)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Requests int64
		Spans    []Span
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Requests != 1 || len(doc.Spans) != 2 {
		t.Fatalf("trace file: %+v", doc)
	}
	if doc.Spans[0].Parent != -1 || doc.Spans[1].Parent != 0 || doc.Spans[1].Req != 1 {
		t.Errorf("parentage: %+v", doc.Spans)
	}
	if doc.Spans[1].StartNs < doc.Spans[0].StartNs || doc.Spans[1].EndNs > doc.Spans[0].EndNs {
		t.Errorf("child not inside parent: %+v", doc.Spans)
	}
}

func TestRecorderOffRecordsNothingAndKeepBoundsMemory(t *testing.T) {
	r := NewRecorder(1)
	r.Begin("x")()
	if _, n := r.Self("x"); n != 0 || r.Requests() != 0 {
		t.Fatal("recorder recorded while off")
	}
	r.On = true
	for i := 0; i < 5; i++ {
		r.NextRequest()
		r.Begin("x")()
	}
	if _, n := r.Self("x"); n != 5 {
		t.Errorf("aggregated %d spans, want all 5", n)
	}
	if len(r.spans) != 1 {
		t.Errorf("retained %d spans, keep is 1", len(r.spans))
	}
}
