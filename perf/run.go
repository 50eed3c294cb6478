package perf

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"hyperq/perf/layers"
)

// Options selects what one invocation measures.
type Options struct {
	Workloads []string
	Seed      int64
	// Seconds is the measured time of one workload's over-the-wire pass,
	// split into three slices.
	Seconds float64
	// Wire and Layers select the passes. With both, the per-layer pass
	// relates its figures to the full over-the-wire pass; with Layers alone
	// it first makes a shortened over-the-wire pass of its own for them.
	Wire, Layers bool
	// Quick shrinks everything to a smoke test: in-process gateway, half-second
	// slices, a small wide table, millisecond timer budgets.
	Quick  bool
	OutDir string
	// GatewayBin is the built cmd/hyperq ("" with Quick).
	GatewayBin string
}

// Slices is the number of timed slices of an over-the-wire pass; setupReps is
// how many complete set-ups a full pass makes (setup_s is their median, and
// five keep one or two disturbed starts of a 0.1 s operation out of it).
const (
	Slices    = 3
	setupReps = 5
)

// timing derives the pass's schedule from the measured seconds.
func timing(seconds float64) Timing {
	warm := seconds / 8
	if warm > 3 {
		warm = 3
	}
	return Timing{
		Warmup: time.Duration(warm * float64(time.Second)),
		Slice:  time.Duration(seconds / Slices * float64(time.Second)),
		Slices: Slices,
	}
}

// Clients is the closed loop's size: one connection per processor, at most
// two. The gateway needs processors of its own, so more clients than that
// would measure the load generator's scheduling, not the gateway.
func Clients(nproc int) int {
	if nproc < 2 {
		return 1
	}
	return 2
}

// layerScale is the size of a per-layer pass.
type layerScale struct {
	budget       time.Duration
	requests     int // replay length for workloads of small requests
	wideRequests int // replay length where every request returns the wide table
	wideRows     int
	keepSpans    int
}

func scaleFor(quick bool) layerScale {
	if quick {
		return layerScale{budget: 20 * time.Millisecond, requests: 400, wideRequests: 2, wideRows: 2000, keepSpans: 2000}
	}
	return layerScale{budget: 300 * time.Millisecond, requests: 8000, wideRequests: 4, wideRows: WideRows, keepSpans: 20000}
}

// Run measures the selected workloads and returns the report.
func Run(ctx context.Context, o Options, env Environment) (*Report, error) {
	rep := &Report{Schema: "hqbench/1", Env: env}
	sc := scaleFor(o.Quick)
	wenv := Env{GatewayBin: o.GatewayBin, OutDir: o.OutDir, Clients: env.Clients, WideRows: sc.wideRows}
	for _, name := range o.Workloads {
		wr := &WorkloadReport{Name: name, Why: Why[name]}
		// The per-layer pass on its own still needs the end-to-end median it
		// relates the layers to, so it makes a shortened over-the-wire pass.
		wtm, reps := timing(o.Seconds), setupReps
		if !o.Wire {
			wtm, reps = timing(o.Seconds/3), 1
		}
		if o.Quick {
			reps = 1
		}
		wire, err := RunWire(wenv, name, o.Seed, wtm, reps)
		if err != nil {
			return nil, err
		}
		if o.Wire {
			wr.setWire(wire)
		} else {
			wr.Attempted, wr.Failed, wr.Failures = wire.Attempted, wire.Failed, wire.Failures
		}
		if o.Layers {
			wr.e2eP50Ms = wire.Metrics["latency_p50_ms"]
			if err := runLayers(ctx, wr, wire, o, sc); err != nil {
				return nil, fmt.Errorf("%s: per-layer pass: %w", name, err)
			}
		}
		wr.check(o.Layers)
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

// stream presents a recorded workload to the in-process passes.
func stream(w *Workload, ref *Reference) *layers.Stream {
	return &layers.Stream{
		Catalog:   w.GatewayCatalog,
		Table:     ref.Table,
		Setup:     w.Setup,
		Texts:     w.Texts,
		Requests:  w.Streams[0],
		ColdCache: w.ColdCache,
	}
}

// wideInput builds the result_stream fixture for the codec timers: the wide
// table's recorded reply, its frontend view, and the record parcels a client
// gets for it.
func wideInput(seed int64, rows int) (*layers.Wide, *Reference, error) {
	w, err := NewWorkload(ResultStream, seed, 1, rows)
	if err != nil {
		return nil, nil, err
	}
	ref, err := Record(w)
	if err != nil {
		return nil, nil, err
	}
	return wideFrom(w, ref), ref, nil
}

// wideFrom presents a recorded result_stream workload, whose table holds the
// one wide reply, as the codec fixture.
func wideFrom(w *Workload, ref *Reference) *layers.Wide {
	sqlB := ref.Table.Texts()[0]
	reply, _ := ref.Table.Lookup(sqlB)
	return &layers.Wide{
		Stream:  stream(w, ref),
		SQLB:    sqlB,
		Reply:   reply,
		Records: ref.Expect[0].Stmts[0].Parcels,
	}
}

func runLayers(ctx context.Context, wr *WorkloadReport, wire *WireResult, o Options, sc layerScale) error {
	w, ref := wire.Workload, wire.Ref
	// result_stream's own stream is the wide fixture; the other workloads
	// get one generated beside theirs.
	wide, wideRef := wideFrom(w, ref), ref
	requests := sc.wideRequests
	if w.Name != ResultStream {
		var err error
		if wide, wideRef, err = wideInput(o.Seed, sc.wideRows); err != nil {
			return err
		}
		requests = sc.requests
	}
	wr.TraceFile = filepath.Join(o.OutDir, "trace-"+w.Name+".json")
	res, err := layers.Run(ctx, layers.Input{
		Stream:       stream(w, ref),
		Wide:         wide,
		WideFront:    wideRef.Front[0][0],
		Budget:       sc.budget,
		Requests:     requests,
		WideRequests: sc.wideRequests,
		HasCycles:    w.CycleLen > 0,
		TraceFile:    wr.TraceFile,
		KeepSpans:    sc.keepSpans,
		E2E: layers.E2E{
			LatencyP50Ms:  wire.Metrics["latency_p50_ms"],
			CannedReplyUs: wire.CannedReplyUs,
			LoadgenShare:  wire.LoadgenShare,
		},
	})
	if err != nil {
		return err
	}
	wr.setLayers(res)
	return nil
}
