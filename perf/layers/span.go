// Package layers is the benchmark's per-layer pass: one timer per package of
// the gateway, each calling only that package's public functions, and a span
// recorder that attributes an in-process request's time to the layers it
// passed through. Nothing here instruments the program under test; every
// span is recorded from the benchmark's side of a public call.
package layers

import (
	"encoding/json"
	"os"
	"time"
)

// Span is one timed call. Spans of one request share Req; Parent is the
// index of the span that was open when this one began, -1 at the top.
type Span struct {
	Name    string `json:"name"`
	Req     int64  `json:"req"`
	Parent  int32  `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Recorder keeps spans in memory. It is used from one goroutine: the traced
// pass is single-threaded so that parentage is simply the open-span stack and
// allocation deltas mean something.
type Recorder struct {
	// On gates recording; with it off Begin and End cost one branch, which is
	// how the pass measures its own overhead.
	On    bool
	t0    time.Time
	spans []Span
	open  []int32
	req   int64
	// self accumulates per-name self time over every span ever recorded,
	// including those dropped from spans once keep is reached.
	self  map[string]time.Duration
	count map[string]int64
	keep  int
	child []time.Duration // per open span: time covered by finished children
}

// NewRecorder returns a recorder that aggregates every span but retains at
// most keep of them for the trace file.
func NewRecorder(keep int) *Recorder {
	return &Recorder{t0: time.Now(), self: make(map[string]time.Duration), count: make(map[string]int64), keep: keep}
}

// NextRequest starts a new request identifier.
func (r *Recorder) NextRequest() {
	if r.On {
		r.req++
	}
}

// Begin opens a span and returns the function that closes it.
func (r *Recorder) Begin(name string) func() {
	if !r.On {
		return func() {}
	}
	start := time.Since(r.t0)
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	idx := int32(-1)
	if len(r.spans) < r.keep {
		idx = int32(len(r.spans))
		r.spans = append(r.spans, Span{Name: name, Req: r.req, Parent: parent, StartNs: int64(start)})
	}
	r.open = append(r.open, idx)
	r.child = append(r.child, 0)
	return func() {
		end := time.Since(r.t0)
		d := end - start
		n := len(r.open) - 1
		covered := r.child[n]
		r.open, r.child = r.open[:n], r.child[:n]
		if n > 0 {
			r.child[n-1] += d
		}
		// Self time: the span minus the part its children cover.
		r.self[name] += d - covered
		r.count[name]++
		if idx >= 0 {
			r.spans[idx].EndNs = int64(end)
		}
	}
}

// Self reports the accumulated self time and span count of a name.
func (r *Recorder) Self(name string) (time.Duration, int64) { return r.self[name], r.count[name] }

// Requests is the number of request identifiers handed out.
func (r *Recorder) Requests() int64 { return r.req }

// WriteFile writes the retained spans as one JSON document.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Requests int64  `json:"requests"`
		Retained int    `json:"retained_spans"`
		Spans    []Span `json:"spans"`
	}{r.req, len(r.spans), r.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
