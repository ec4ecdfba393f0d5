package fleet

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// obsBundle is one fully wired observability surface for a single run:
// a fresh registry, the fleet instrument bundle and a trace ring.
func obsBundle() (*obs.Registry, *obs.FleetMetrics, *obs.Trace) {
	reg := obs.NewRegistry("test")
	return reg, obs.NewFleetMetrics(reg), obs.NewTrace(1 << 12)
}

// TestOpenObsOnOffByteIdentical is the observability layer's load-bearing
// property: enabling metrics and tracing must not change a single byte of
// any result — lifecycles, traces, stats, admission verdicts — at any
// scheduler shape. The instrumented run is compared against the plain
// serial spec, which ignores Obs entirely, so any observable side effect
// of the hooks fails the comparison.
func TestOpenObsOnOffByteIdentical(t *testing.T) {
	const n = 30
	streams := skewedStreams(t, n, 37)
	shapes := []struct{ workers, batch, look int }{
		{1, 0, lookahead}, {2, 1, 1}, {4, 32, 4}, {8, 3, 64},
	}
	for model, times := range openProcesses(t, n) {
		ref, err := OpenRunStatsSerial(OpenConfig{
			Streams: streams, Arrivals: times, Admit: CapK{K: 3, Queue: -1}})
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		for _, shape := range shapes {
			_, met, tr := obsBundle()
			got, err := runWindow(OpenConfig{
				Streams:     streams,
				Arrivals:    times,
				Admit:       CapK{K: 3, Queue: -1},
				Workers:     shape.workers,
				BatchCycles: shape.batch,
				Obs:         met,
				Trace:       tr,
			}, shape.look)
			if err != nil {
				t.Fatalf("%s: %v", model, err)
			}
			label := model + "/obs-on"
			compareOpen(t, label, ref, got)
			if tr.Seq() == 0 {
				t.Fatalf("%s: trace recorded no events", label)
			}
		}
	}
}

// serialOrderSnapshot collects the metric values the determinism
// contract pins: everything driven by the frontier's single-goroutine
// event loop must be identical at any (workers, batch, lookahead window).
type serialOrderSnapshot struct {
	arrivals, admitted, delayed, shed, departures, events int64
	backlogMax                                            int64
	backlogIntegral                                       float64
}

func snapshotSerialOrder(m *obs.FleetMetrics) serialOrderSnapshot {
	return serialOrderSnapshot{
		arrivals:        m.Arrivals.Value(),
		admitted:        m.Admitted.Value(),
		delayed:         m.Delayed.Value(),
		shed:            m.Shed.Value(),
		departures:      m.Departures.Value(),
		events:          m.Events.Value(),
		backlogMax:      m.BacklogMax.Value(),
		backlogIntegral: m.BacklogIntegral.Value(),
	}
}

// TestOpenSerialOrderMetricsDeterministic: the serial-order metric
// subset is a pure function of (streams, arrivals, admitter) — every
// scheduler shape reports the same values, and they agree with the
// sealed result's own counts.
func TestOpenSerialOrderMetricsDeterministic(t *testing.T) {
	const n = 30
	streams := skewedStreams(t, n, 41)
	times := openProcesses(t, n)["bursty"]
	adm := CapK{K: 2, Queue: 2}
	shapes := []struct{ workers, batch, look int }{
		{1, 0, lookahead}, {2, 1, 1}, {4, 32, 4}, {8, 3, 64},
	}
	var want serialOrderSnapshot
	for i, shape := range shapes {
		_, met, _ := obsBundle()
		res, err := runWindow(OpenConfig{
			Streams:     streams,
			Arrivals:    times,
			Admit:       adm,
			Workers:     shape.workers,
			BatchCycles: shape.batch,
			Obs:         met,
		}, shape.look)
		if err != nil {
			t.Fatal(err)
		}
		got := snapshotSerialOrder(met)
		if got.arrivals != int64(n) {
			t.Fatalf("shape %d: arrivals = %d, want %d", i, got.arrivals, n)
		}
		if got.admitted != int64(res.Admitted) || got.delayed != int64(res.Delayed) || got.shed != int64(res.Shed) {
			t.Fatalf("shape %d: metric verdicts %d/%d/%d disagree with result %d/%d/%d",
				i, got.admitted, got.delayed, got.shed, res.Admitted, res.Delayed, res.Shed)
		}
		if got.backlogMax != int64(res.MaxBacklog) || got.backlogIntegral != res.BacklogIntegral {
			t.Fatalf("shape %d: backlog metrics %d/%v disagree with result %d/%v",
				i, got.backlogMax, got.backlogIntegral, res.MaxBacklog, res.BacklogIntegral)
		}
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("shape %d: serial-order metrics diverged across shapes:\nwant %+v\ngot  %+v", i, want, got)
		}
	}
}

// TestClosedObsOnOffIdentical covers the closed fleet path: Config.Obs
// and Config.Trace must not change results, the batch counter must
// account for at least one batch per stream, and — the closed fleet
// being the open engine with every arrival at t = 0 under admit-all —
// the frontier's serial-order counters must see every stream arrive,
// be admitted and depart, with nothing delayed or shed.
func TestClosedObsOnOffIdentical(t *testing.T) {
	streams := mixedStreams(t, 12, 40, 43)
	ref, err := RunStats(Config{Streams: streams, Workers: 4, BatchCycles: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, met, tr := obsBundle()
	got, err := RunStats(Config{Streams: streams, Workers: 4, BatchCycles: 8, Obs: met, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	for k := range ref.Streams {
		w, g := &ref.Streams[k], &got.Streams[k]
		if w.Name != g.Name || (w.Err == nil) != (g.Err == nil) || !reflect.DeepEqual(w.Trace, g.Trace) {
			t.Fatalf("stream %d diverged with obs enabled", k)
		}
	}
	if met.Batches.Value() < int64(len(streams)) {
		t.Fatalf("batches = %d, want at least one per stream (%d)", met.Batches.Value(), len(streams))
	}
	n := int64(len(streams))
	c := snapshotSerialOrder(met)
	if c.arrivals != n || c.admitted != n || c.departures != n || c.shed != 0 || c.delayed != 0 {
		t.Fatalf("closed fleet of %d: arrivals %d, admitted %d, departures %d, shed %d, delayed %d",
			n, c.arrivals, c.admitted, c.departures, c.shed, c.delayed)
	}
}
