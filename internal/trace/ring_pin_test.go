package trace

import (
	"fmt"
	"testing"
	"time"
)

func mkTrace(id string, dur time.Duration) *Trace {
	return &Trace{ID: id, DurNs: int64(dur)}
}

// TestRingPinSurvivesChurn: a pinned exemplar must stay retrievable no matter
// how many traces rotate through the recent ring past it.
func TestRingPinSurvivesChurn(t *testing.T) {
	r := NewRing()
	ex := mkTrace("exemplar", 5*time.Millisecond)
	r.Add(ex)
	r.Pin(ex)
	for i := 0; i < ringSize+100; i++ {
		r.Add(mkTrace(fmt.Sprintf("churn-%d", i), time.Millisecond))
	}
	if got := r.Get("exemplar"); got != ex {
		t.Fatal("pinned trace rotated out of the ring")
	}
	if n := r.PinnedCount(); n != 1 {
		t.Fatalf("pinned count = %d, want 1", n)
	}
	// Unpinned and churned out: gone.
	r.Unpin("exemplar")
	if got := r.Get("exemplar"); got != nil {
		t.Fatal("unpinned churned-out trace still retrievable")
	}
	if n := r.PinnedCount(); n != 0 {
		t.Fatalf("pinned count = %d after unpin, want 0", n)
	}
}

// TestRingGetPrecedence: Get consults pins, then the slow list, then the
// recent ring — the pinned instance wins over a same-id ring entry.
func TestRingGetPrecedence(t *testing.T) {
	r := NewRing()
	pinned := mkTrace("dup", 10*time.Millisecond)
	r.Pin(pinned)
	other := mkTrace("dup", 2*time.Millisecond)
	r.Add(other)
	if got := r.Get("dup"); got != pinned {
		t.Fatal("Get preferred a ring entry over the pinned exemplar")
	}
	// Slow-retained traces are found even after recent-ring churn.
	slow := mkTrace("slow", slowQuery+50*time.Millisecond)
	r.Add(slow)
	for i := 0; i < ringSize+20; i++ {
		r.Add(mkTrace(fmt.Sprintf("fast-%d", i), time.Microsecond))
	}
	if got := r.Get("slow"); got != slow {
		t.Fatal("slow trace not retrievable after recent churn")
	}
}

func TestRingPinIdempotentAndNilSafe(t *testing.T) {
	r := NewRing()
	ex := mkTrace("x", time.Millisecond)
	r.Pin(ex)
	r.Pin(ex)
	if n := r.PinnedCount(); n != 1 {
		t.Fatalf("double pin counted twice: %d", n)
	}
	r.Pin(nil)
	r.Unpin("unknown")

	var nilRing *Ring
	nilRing.Pin(ex)
	nilRing.Unpin("x")
	if nilRing.Get("x") != nil || nilRing.PinnedCount() != 0 {
		t.Fatal("nil ring not inert")
	}
}

func TestRingResetClearsPins(t *testing.T) {
	r := NewRing()
	ex := mkTrace("x", time.Millisecond)
	r.Add(ex)
	r.Pin(ex)
	r.Reset()
	if r.Get("x") != nil || r.PinnedCount() != 0 {
		t.Fatal("Reset left pinned traces behind")
	}
}
