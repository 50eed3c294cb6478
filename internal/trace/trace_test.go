package trace

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

func TestSpanTreeNesting(t *testing.T) {
	tr := New(1, 7, "u", "SELECT 1")
	parse := tr.Start("parse")
	parse.End()
	exec := tr.Start("execute")
	exec.Set("sql", "SELECT 1")
	rc := tr.Start("reconnect")
	rp := tr.Start("replay")
	rp.End()
	rc.End()
	tr.Event("retry", "attempt", "1")
	exec.End()
	tr.Finish("ok", 0, "", "")

	if len(tr.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(tr.Root.Children))
	}
	e := tr.FindSpan("execute")
	if e == nil || len(e.Children) != 2 {
		t.Fatalf("execute span children wrong: %+v", e)
	}
	if tr.FindSpan("replay") == nil {
		t.Fatal("replay span not nested under reconnect")
	}
	if rc := tr.FindSpan("reconnect"); rc.Children[0].Name != "replay" {
		t.Fatalf("reconnect child = %q", rc.Children[0].Name)
	}
	if tr.FindSpan("retry") == nil {
		t.Fatal("retry event missing")
	}
	if tr.Outcome != "ok" || tr.DurNs <= 0 {
		t.Fatalf("finish did not stamp outcome/duration: %+v", tr)
	}
	if tr.StageNs.Get("parse") < 0 || tr.StageNs.Get("execute") <= 0 {
		t.Fatalf("stage sums missing: %v", tr.StageNs)
	}
	// Finished traces must be JSON-encodable (the /traces endpoint).
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["id"] != "t-7-1" {
		t.Fatalf("id = %v", decoded["id"])
	}
	// A decoded trace keeps its stage sums (/traces clients decode them).
	var back Trace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"parse", "execute", "reconnect", "replay"} {
		if got, want := back.StageNs.Get(stage), tr.StageNs.Get(stage); got != want {
			t.Fatalf("decoded %s = %d ns, want %d", stage, got, want)
		}
	}
	if !reflect.DeepEqual(back.StageNs.Map(), tr.StageNs.Map()) {
		t.Fatalf("decoded stage sums %v, want %v", back.StageNs.Map(), tr.StageNs.Map())
	}
}

func TestFinishClosesAbandonedSpans(t *testing.T) {
	tr := New(1, 1, "u", "SELECT 1")
	tr.Start("execute") //hyperqlint:ignore spanend deliberately abandons the span to exercise Finish's stack unwinding
	tr.Start("inner")   //hyperqlint:ignore spanend deliberately abandons the span to exercise Finish's stack unwinding
	tr.Finish("error", 3807, "execution", "boom")
	if sp := tr.FindSpan("execute"); sp.DurNs < 0 {
		t.Fatal("abandoned span not closed")
	}
	if len(tr.stack) != 1 {
		t.Fatalf("stack not unwound: %d", len(tr.stack))
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	sp := tr.Start("x")
	sp.Set("k", "v")
	sp.End()
	tr.Event("e")
	tr.AddTranslated("sql")
	tr.SetCache("hit")
	tr.Finish("ok", 0, "", "")
	if tr.Duration() != 0 || tr.FindSpan("x") != nil {
		t.Fatal("nil trace accessors should be zero")
	}
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != nil {
		t.Fatal("nil trace must not be stored in context")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := New(1, 1, "u", "q")
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost in context")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context should yield nil")
	}
}

func finished(d time.Duration) *Trace {
	tr := New(1, 1, "u", "q")
	tr.Finish("ok", 0, "", "")
	tr.DurNs = d.Nanoseconds() // deterministic durations for ring tests
	return tr
}

func TestRingRecentBounded(t *testing.T) {
	r := NewRing()
	var traces []*Trace
	for i := 0; i < ringSize+2; i++ {
		tr := finished(time.Duration(i) * time.Microsecond)
		traces = append(traces, tr)
		r.Add(tr)
	}
	recent := r.Recent()
	if len(recent) != ringSize {
		t.Fatalf("recent = %d, want %d", len(recent), ringSize)
	}
	if recent[0] != traces[ringSize+1] || recent[ringSize-1] != traces[2] {
		t.Fatal("recent order wrong (want newest first)")
	}
	if len(r.Slow()) != 0 {
		t.Fatal("traces under the slow-query threshold retained as slow")
	}
}

func TestRingSlowRetainsWorst(t *testing.T) {
	r := NewRing()
	slow := finished(time.Hour)
	r.Add(slow)
	r.Add(finished(slowQuery - 1)) // below threshold
	for i := 0; i < 100; i++ {
		r.Add(finished(slowQuery + time.Duration(i)*time.Millisecond))
	}
	got := r.Slow()
	if len(got) != slowCap {
		t.Fatalf("slow list = %d, want %d (cap)", len(got), slowCap)
	}
	if got[0] != slow {
		t.Fatal("worst offender evicted from slow list")
	}
	for i := 1; i < len(got); i++ {
		if got[i].DurNs > got[i-1].DurNs {
			t.Fatal("slow list not sorted slowest-first")
		}
	}
	r.Reset()
	if len(r.Slow()) != 0 || len(r.Recent()) != 0 {
		t.Fatal("reset did not clear the ring")
	}
}
