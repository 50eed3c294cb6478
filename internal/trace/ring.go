package trace

import (
	"sort"
	"sync"
	"time"
)

// Ring retention bounds.
const (
	// ringSize is the number of most recent traces the ring keeps.
	ringSize = 256
	// slowCap is the number of slow traces kept apart from the ring.
	slowCap = ringSize / 4
	// slowQuery is the slow-query threshold: traces at or above it are
	// retained in the slow list regardless of recent-trace churn.
	slowQuery = 200 * time.Millisecond
)

// Ring is a bounded in-memory store of finished traces: a circular buffer of
// the ringSize most recent traces plus a separate retention list for the
// slowCap slowest traces at or above slowQuery. The slow list always keeps
// the worst offenders — a burst of fast queries can evict recent history but
// never the slowest statements, which are exactly the ones an operator comes
// looking for after the fact.
type Ring struct {
	mu      sync.Mutex
	recent  []*Trace // circular; next is the write position
	next    int
	slowest []*Trace // sorted by DurNs descending, len <= slowCap
	// pinned holds traces retained by id regardless of ring churn — the
	// workload-statistics registry pins each fingerprint's slowest trace as
	// an exemplar, so cardinality is bounded by the registry's entry bound
	// (one pin per tracked fingerprint, unpinned on eviction and reset).
	pinned map[string]*Trace
}

// NewRing creates an empty ring.
func NewRing() *Ring { return &Ring{} }

// SlowThreshold reports the slow-query threshold.
func (r *Ring) SlowThreshold() time.Duration { return slowQuery }

// Add publishes a finished trace.
func (r *Ring) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.recent) < ringSize {
		r.recent = append(r.recent, t)
	} else {
		r.recent[r.next] = t
	}
	r.next = (r.next + 1) % ringSize
	if time.Duration(t.DurNs) < slowQuery {
		return
	}
	// Insert into the slow list, keeping it sorted slowest-first; when full,
	// the fastest slow trace is dropped.
	i := sort.Search(len(r.slowest), func(i int) bool { return r.slowest[i].DurNs < t.DurNs })
	r.slowest = append(r.slowest, nil)
	copy(r.slowest[i+1:], r.slowest[i:])
	r.slowest[i] = t
	if len(r.slowest) > slowCap {
		r.slowest = r.slowest[:slowCap]
	}
}

// Recent returns the retained traces, newest first.
func (r *Ring) Recent() []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, len(r.recent))
	for i := 1; i <= len(r.recent); i++ {
		out = append(out, r.recent[(r.next-i+len(r.recent)*2)%len(r.recent)])
	}
	return out
}

// Slow returns the retained slow traces, slowest first.
func (r *Ring) Slow() []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, len(r.slowest))
	copy(out, r.slowest)
	return out
}

// Pin retains a finished trace by id until Unpin (or Reset): ring churn
// cannot rotate it out. Idempotent; safe on a nil ring or trace.
func (r *Ring) Pin(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pinned == nil {
		r.pinned = make(map[string]*Trace)
	}
	r.pinned[t.ID] = t
}

// Unpin releases a pinned trace. Safe on a nil ring and unknown ids.
func (r *Ring) Unpin(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.pinned, id)
}

// Get returns the retained trace with the given id — pinned exemplars first,
// then the slow list, then the recent ring — or nil when the trace has been
// rotated out everywhere.
func (r *Ring) Get(id string) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.pinned[id]; ok {
		return t
	}
	for _, t := range r.slowest {
		if t.ID == id {
			return t
		}
	}
	for _, t := range r.recent {
		if t != nil && t.ID == id {
			return t
		}
	}
	return nil
}

// PinnedCount reports how many traces are currently pinned.
func (r *Ring) PinnedCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pinned)
}

// Reset drops every retained trace, pinned exemplars included.
func (r *Ring) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recent = r.recent[:0]
	r.next = 0
	r.slowest = nil
	r.pinned = nil
}
