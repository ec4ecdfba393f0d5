package fleet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/multitask"
	"repro/internal/sim"
)

// TestOpenClosedEquivalence is the open system's anchor property: a
// fixed-period arrival process with every stream arriving at t = 0 under
// admit-all is exactly the closed fleet — which runs on this engine —
// so every stream's trace must equal its serial sim.Runner run byte for
// byte, at any worker count and batch size, and each lifecycle must be
// the stream's own service time from t = 0.
func TestOpenClosedEquivalence(t *testing.T) {
	streams := mixedStreams(t, 9, 4, 17)
	serial := make([]*sim.Trace, len(streams))
	for k := range streams {
		tr, err := streams[k].Runner.Run()
		if err != nil {
			t.Fatal(err)
		}
		serial[k] = tr
	}
	times, err := arrivals.Fixed{}.Times(len(streams))
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct{ workers, batch int }{{1, 0}, {2, 1}, {4, 32}, {8, 3}} {
		open, err := recorded(OpenRunStats, OpenConfig{
			Streams:     streams,
			Arrivals:    times,
			Workers:     shape.workers,
			BatchCycles: shape.batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := open.Err(); err != nil {
			t.Fatal(err)
		}
		if open.Admitted != len(streams) || open.Shed != 0 || open.Delayed != 0 {
			t.Fatalf("workers=%d batch=%d: admit-all at t=0 admitted %d, delayed %d, shed %d",
				shape.workers, shape.batch, open.Admitted, open.Delayed, open.Shed)
		}
		for k := range streams {
			st, ot := serial[k], open.Streams[k].Trace
			if !reflect.DeepEqual(st, ot) {
				t.Fatalf("workers=%d batch=%d: stream %d trace diverged from the serial runner",
					shape.workers, shape.batch, k)
			}
			if !bytes.Equal(traceBytes(t, st), traceBytes(t, ot)) {
				t.Fatalf("workers=%d batch=%d: stream %d trace bytes diverged", shape.workers, shape.batch, k)
			}
			lc := open.Lifecycles[k]
			if lc.Admitted != 0 || lc.Departed != ot.Final {
				t.Fatalf("stream %d lifecycle %+v does not match trace final %v", k, lc, ot.Final)
			}
		}
	}
}

// openProcesses is the arrival-model matrix the determinism property
// sweeps: one representative of every supported model.
func openProcesses(t *testing.T, n int) map[string][]core.Time {
	t.Helper()
	period := 20 * core.Millisecond
	procs := map[string]arrivals.Process{
		"fixed":   arrivals.Fixed{Start: core.Millisecond, Period: period / 2},
		"poisson": arrivals.Poisson{MeanGap: period, Seed: 11},
		"bursty":  arrivals.Bursty{GapOn: period / 4, MeanOn: period, MeanOff: 3 * period, Seed: 12},
	}
	out := map[string][]core.Time{}
	for name, p := range procs {
		times, err := p.Times(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = times
	}
	// Trace replay: feed the poisson instants back through a Trace.
	tr, err := arrivals.NewTrace(out["poisson"])
	if err != nil {
		t.Fatal(err)
	}
	replay, err := tr.Times(n)
	if err != nil {
		t.Fatal(err)
	}
	out["trace"] = replay
	return out
}

// TestOpenDeterminismAcrossWorkersAndBatches is the acceptance property:
// for every arrival model and every admission policy, a fixed seed
// produces identical traces, lifecycles and admission decisions at any
// (workers, BatchCycles). The reference is the serial spec
// (OpenRunStatsSerial); the shapes cover both the inline workers = 1
// engine and the concurrent injection pool.
func TestOpenDeterminismAcrossWorkersAndBatches(t *testing.T) {
	const n = 10
	streams := mixedStreams(t, n, 3, 5)
	u := multitask.Utilization(streams[0].Runner.Sys, streams[0].Runner.Sys.QMin(), streams[0].Runner.Period)
	admitters := []Admitter{
		AdmitAll{},
		CapK{K: 2, Queue: -1},
		CapK{K: 2, Queue: 1},
		Budget{CPU: 2.5 * u, Queue: -1},
		Budget{CPU: 2.5 * u, Queue: 2},
	}
	for model, times := range openProcesses(t, n) {
		for _, adm := range admitters {
			ref, err := OpenRunStatsSerial(OpenConfig{Streams: streams, Arrivals: times, Admit: adm, Workers: 1})
			if err != nil {
				t.Fatalf("%s/%s: %v", model, adm.Name(), err)
			}
			if err := ref.Err(); err != nil {
				t.Fatalf("%s/%s: %v", model, adm.Name(), err)
			}
			for _, shape := range []struct{ workers, batch int }{{1, 0}, {2, 1}, {4, 32}, {8, 5}} {
				got, err := OpenRunStats(OpenConfig{
					Streams:     streams,
					Arrivals:    times,
					Admit:       adm,
					Workers:     shape.workers,
					BatchCycles: shape.batch,
				})
				if err != nil {
					t.Fatalf("%s/%s: %v", model, adm.Name(), err)
				}
				if !reflect.DeepEqual(ref.OpenObservations, got.OpenObservations) {
					t.Fatalf("%s/%s workers=%d batch=%d: lifecycles or backlog diverged",
						model, adm.Name(), shape.workers, shape.batch)
				}
				if ref.Admitted != got.Admitted || ref.Delayed != got.Delayed || ref.Shed != got.Shed {
					t.Fatalf("%s/%s workers=%d batch=%d: admission counts diverged",
						model, adm.Name(), shape.workers, shape.batch)
				}
				if !reflect.DeepEqual(ref.Streams, got.Streams) {
					t.Fatalf("%s/%s workers=%d batch=%d: stream results diverged",
						model, adm.Name(), shape.workers, shape.batch)
				}
			}
		}
	}
}

// TestOpenCapKSequencing pins the queueing semantics of cap-K admission
// on a hand-checkable case: three identical streams arriving together
// under cap-1 run strictly one after another, each admitted the instant
// its predecessor departs.
func TestOpenCapKSequencing(t *testing.T) {
	streams := mixedStreams(t, 3, 2, 9)
	times := []core.Time{0, 0, 0}
	res, err := OpenRunStats(OpenConfig{Streams: streams, Arrivals: times, Admit: CapK{K: 1, Queue: -1}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 3 || res.Shed != 0 || res.Delayed != 2 {
		t.Fatalf("cap-1: admitted %d delayed %d shed %d", res.Admitted, res.Delayed, res.Shed)
	}
	if res.MaxBacklog != 2 {
		t.Fatalf("cap-1 with 3 simultaneous arrivals: max backlog %d, want 2", res.MaxBacklog)
	}
	for k := 0; k < 3; k++ {
		lc := res.Lifecycles[k]
		want := lc.Admitted + res.Streams[k].Trace.Final
		if lc.Departed != want {
			t.Fatalf("stream %d departed %v, want admitted %v + service %v", k, lc.Departed, lc.Admitted, res.Streams[k].Trace.Final)
		}
		if k > 0 && lc.Admitted != res.Lifecycles[k-1].Departed {
			t.Fatalf("stream %d admitted at %v, want predecessor departure %v", k, lc.Admitted, res.Lifecycles[k-1].Departed)
		}
		if (k > 0) != lc.Queued {
			t.Fatalf("stream %d queued flag %v", k, lc.Queued)
		}
	}
	if res.BacklogIntegral <= 0 {
		t.Fatal("cap-1 run with waiting streams has zero backlog integral")
	}
}

// TestOpenShedding covers the loss-system shapes: a zero-length queue
// sheds on arrival, a bounded queue sheds the overflow only.
func TestOpenShedding(t *testing.T) {
	streams := mixedStreams(t, 3, 2, 21)
	times := []core.Time{0, 0, 0}

	res, err := OpenRunStats(OpenConfig{Streams: streams, Arrivals: times, Admit: CapK{K: 1, Queue: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 1 || res.Shed != 2 || res.Delayed != 0 {
		t.Fatalf("cap-1/queue-0: admitted %d delayed %d shed %d", res.Admitted, res.Delayed, res.Shed)
	}
	for k := 1; k < 3; k++ {
		if !res.Lifecycles[k].Shed {
			t.Fatalf("stream %d not shed", k)
		}
		if res.Streams[k].Trace != nil || res.Streams[k].Stats != nil {
			t.Fatalf("shed stream %d carries a trace or stats", k)
		}
	}
	if fr := res.FleetResult(); len(fr.Streams) != 1 {
		t.Fatalf("FleetResult has %d streams, want the 1 executed", len(fr.Streams))
	}

	res, err = OpenRunStats(OpenConfig{Streams: streams, Arrivals: times, Admit: CapK{K: 1, Queue: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 2 || res.Shed != 1 || res.Delayed != 1 {
		t.Fatalf("cap-1/queue-1: admitted %d delayed %d shed %d", res.Admitted, res.Delayed, res.Shed)
	}
}

// TestOpenBudgetStarvation: a stream whose own demand exceeds the whole
// simulated-CPU budget can never be admitted; the run must terminate and
// shed it (and everything queued behind it) when the system drains
// instead of spinning.
func TestOpenBudgetStarvation(t *testing.T) {
	streams := mixedStreams(t, 2, 2, 33)
	res, err := OpenRunStats(OpenConfig{
		Streams:  streams,
		Arrivals: []core.Time{0, core.Millisecond},
		Admit:    Budget{CPU: 1e-9, Queue: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 0 || res.Shed != 2 {
		t.Fatalf("unfittable streams: admitted %d shed %d", res.Admitted, res.Shed)
	}
	for k, lc := range res.Lifecycles {
		if !lc.Shed || !lc.Queued {
			t.Fatalf("stream %d lifecycle %+v: want queued then shed at drain", k, lc)
		}
	}
}

// TestOpenBadStream: an invalid stream configuration is a per-stream
// error, not a run abort; the stream occupies no simulated time.
func TestOpenBadStream(t *testing.T) {
	streams := mixedStreams(t, 3, 2, 41)
	streams[1].Runner.Cycles = 0 // invalid
	res, err := OpenRunStats(OpenConfig{Streams: streams, Arrivals: []core.Time{0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Streams[1].Err == nil {
		t.Fatal("invalid stream has no error")
	}
	if err := res.Err(); err == nil || !strings.Contains(err.Error(), streams[1].Name) {
		t.Fatalf("result error %v does not name the bad stream", err)
	}
	lc := res.Lifecycles[1]
	if lc.Departed != lc.Admitted {
		t.Fatalf("bad stream occupies simulated time: %+v", lc)
	}
	if !lc.Failed {
		t.Fatalf("bad stream not marked failed: %+v", lc)
	}
	if res.Lifecycles[0].Failed || res.Lifecycles[2].Failed {
		t.Fatal("healthy streams marked failed")
	}
	if res.Streams[0].Err != nil || res.Streams[2].Err != nil {
		t.Fatal("healthy streams infected by the bad one")
	}
}

// TestOpenBadStreamHoldsNoBudget: a stream that will fail at bind
// departs instantly, so it must not consume CPU budget that valid
// arrivals at the same instant are decided against.
func TestOpenBadStreamHoldsNoBudget(t *testing.T) {
	streams := mixedStreams(t, 2, 2, 51)
	streams[0].Runner.Cycles = 0 // fails InitStream; would nominally weigh like streams[1]
	r := &streams[1].Runner
	u := multitask.Utilization(r.Sys, r.Sys.QMin(), r.Period)
	res, err := OpenRunStats(OpenConfig{
		Streams:  streams,
		Arrivals: []core.Time{0, 0},
		Admit:    Budget{CPU: u, Queue: 0}, // room for exactly the valid stream
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lifecycles[1].Shed {
		t.Fatal("valid stream shed because a bind-failing stream held budget")
	}
	if res.Streams[1].Err != nil || res.Streams[1].Stats == nil {
		t.Fatal("valid stream did not run")
	}
}

// TestOpenConfigValidation: friendly errors for malformed configs.
func TestOpenConfigValidation(t *testing.T) {
	streams := mixedStreams(t, 2, 1, 3)
	cases := []OpenConfig{
		{},
		{Streams: streams, Arrivals: []core.Time{0}},
		{Streams: streams, Arrivals: []core.Time{0, -1}},
		{Streams: streams, Arrivals: []core.Time{0, core.TimeInf}},
	}
	for i, cfg := range cases {
		if _, err := OpenRunStats(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}
