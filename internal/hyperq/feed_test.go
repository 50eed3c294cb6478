package hyperq

import (
	"context"
	"errors"
	"io"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/odbc"
	"hyperq/internal/wire/cwp"
)

// ctxStream replays events like a backend stream: each Next first honours
// ctx, then hands out the next event, then io.EOF.
type ctxStream struct{ evs []cwp.StreamEvent }

func (s *ctxStream) Next(ctx context.Context) (cwp.StreamEvent, error) {
	if err := ctx.Err(); err != nil {
		return cwp.StreamEvent{}, err
	}
	if len(s.evs) == 0 {
		return cwp.StreamEvent{}, io.EOF
	}
	ev := s.evs[0]
	s.evs = s.evs[1:]
	return ev, nil
}

func (s *ctxStream) Close() error { return nil }

// statementEvents is one result set of n batches: Meta, the batches, Complete.
func statementEvents(n int) []cwp.StreamEvent {
	_, b := wideFixture(64, false)
	evs := []cwp.StreamEvent{{Kind: cwp.StreamMeta, Cols: b.Cols}}
	for i := 0; i < n; i++ {
		_, b := wideFixture(64, false)
		evs = append(evs, cwp.StreamEvent{Kind: cwp.StreamBatch, Batch: b})
	}
	return append(evs, cwp.StreamEvent{Kind: cwp.StreamComplete, Command: "SELECT"})
}

// feedGateway has a session budget of three fixture batches, so a fetch
// goroutine running ahead waits on it.
func feedGateway(t *testing.T) *Gateway {
	t.Helper()
	_, b := wideFixture(64, false)
	g, err := New(Config{
		Target: dialect.CloudA(),
		Driver: &odbc.LocalDriver{Engine: engine.New(dialect.CloudA())},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.resultBudget = int64(3 * b.EncodedSize())
	return g
}

// drainFeed reads f to its terminal event and returns the batch bytes seen.
func drainFeed(t *testing.T, ctx context.Context, f *resultFeed) (batchBytes int64) {
	t.Helper()
	for {
		ev, err := f.Next(ctx)
		if errors.Is(err, io.EOF) {
			return batchBytes
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Batch != nil {
			batchBytes += int64(ev.Batch.EncodedSize())
		}
	}
}

// A one-batch answer is pulled by the consumer itself: no fetch goroutine.
func TestResultFeedOneBatchStartsNoGoroutine(t *testing.T) {
	g := feedGateway(t)
	ctx := context.Background()
	f := &resultFeed{g: g, st: &ctxStream{evs: statementEvents(1)}}
	want := drainFeed(t, ctx, f)
	f.close()
	if f.events != nil {
		t.Error("a one-batch answer started the fetch goroutine")
	}
	if f.delivered != want || g.ResultInflightBytes() != 0 {
		t.Errorf("delivered %d of %d bytes, gauge %d; want all, gauge 0", f.delivered, want, g.ResultInflightBytes())
	}
}

// The second batch starts the fetch goroutine; every reservation made on
// either side of that point comes back.
func TestResultFeedMultiBatchReturnsEveryReservation(t *testing.T) {
	g := feedGateway(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := &resultFeed{g: g, st: &ctxStream{evs: statementEvents(6)}}
	want := drainFeed(t, ctx, f)
	cancel()
	f.close()
	if f.events == nil {
		t.Error("a six-batch answer never started the fetch goroutine")
	}
	if f.delivered != want || f.inflight.Load() != 0 || g.ResultInflightBytes() != 0 {
		t.Errorf("delivered %d of %d bytes, session %d, gauge %d; want all, 0, 0",
			f.delivered, want, f.inflight.Load(), g.ResultInflightBytes())
	}
}

// Cancelling after any number of events — before, at and after the fetch
// goroutine starts, with batches still queued — leaves nothing reserved, and
// close returns.
func TestResultFeedCancelAtEveryEvent(t *testing.T) {
	g := feedGateway(t)
	n := len(statementEvents(6))
	for k := 0; k <= n; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		f := &resultFeed{g: g, st: &ctxStream{evs: statementEvents(6)}}
		for i := 0; i < k; i++ {
			if _, err := f.Next(ctx); err != nil {
				break
			}
		}
		cancel()
		f.close()
		if got := g.ResultInflightBytes(); got != 0 {
			t.Fatalf("cancelled after %d events: gauge %d, want 0", k, got)
		}
	}
}

var _ odbc.ResultStream = (*ctxStream)(nil)
