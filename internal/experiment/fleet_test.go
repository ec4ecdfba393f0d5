package experiment

import (
	"reflect"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestRunFleetMatchesSerialRunner(t *testing.T) {
	s := Paper(1)
	s.Cycles = 2
	res, err := s.RunFleet(9, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	streams, err := s.FleetStreams(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k, stream := range streams {
		serial := stream.Runner.MustRun()
		if !reflect.DeepEqual(res.Streams[k].Trace, serial) {
			t.Fatalf("stream %d: fleet trace differs from serial runner", k)
		}
	}

	// A setup whose exec model cannot be reseeded per stream must be
	// rejected rather than silently replicating one stream n times.
	bad := Paper(1)
	bad.Exec = sim.WorstCase{Sys: bad.Sys}
	if _, err := bad.FleetStreams(1, 4); err == nil {
		t.Fatal("non-Content exec model accepted")
	}
}

func TestPaperFleetStaysSafe(t *testing.T) {
	s := Paper(2)
	s.Cycles = 3
	res, err := s.RunFleet(2, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	var traces []*sim.Trace
	for _, sr := range res.Streams {
		traces = append(traces, sr.Trace)
	}
	fs := metrics.AggregateTraces(traces)
	if fs.Streams != 6 {
		t.Fatalf("aggregated %d streams, want 6", fs.Streams)
	}
	if fs.Misses != 0 {
		t.Fatalf("paper fleet missed %d deadlines; the per-stream manager must stay safe", fs.Misses)
	}
	if fs.AvgQuality <= 0 {
		t.Fatalf("degenerate fleet quality %v", fs.AvgQuality)
	}
}

func TestWorkloadFleetMixesCatalog(t *testing.T) {
	streams, err := WorkloadFleet(4, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 7 {
		t.Fatalf("got %d streams", len(streams))
	}
	distinct := map[string]int{}
	for _, st := range streams {
		distinct[st.Sys.Action(0).Name]++
	}
	if len(distinct) != 3 {
		t.Fatalf("workload mix covers %d workloads, want 3", len(distinct))
	}
	res, err := fleet.Run(fleet.Config{Streams: streams, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.Streams {
		if sr.Trace.Misses != 0 {
			t.Fatalf("mixed workload stream %s missed %d deadlines", sr.Name, sr.Trace.Misses)
		}
	}
	if _, err := WorkloadFleet(1, 0, 2); err == nil {
		t.Fatal("n=0 must be rejected")
	}
	if _, err := WorkloadFleet(1, 2, 0); err == nil {
		t.Fatal("cycles=0 must be rejected")
	}
}

// TestRunOpenFleet: the open-system wrapper admits the whole paper
// population under an ample cap and its executed traces match the
// closed fleet's (same seeds, same streams — arrivals only shift the
// lifecycle, never the content).
func TestRunOpenFleet(t *testing.T) {
	s := Paper(1)
	s.Cycles = 2
	const n, seed = 3, 9
	proc := arrivals.Poisson{MeanGap: s.Period, Seed: 4}
	open, err := s.RunOpenFleet(seed, n, 2, proc, fleet.CapK{K: 2, Queue: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := open.Err(); err != nil {
		t.Fatal(err)
	}
	if open.Admitted != n || open.Shed != 0 {
		t.Fatalf("ample cap admitted %d, shed %d", open.Admitted, open.Shed)
	}
	closed, err := s.RunFleetStats(seed, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := range closed.Streams {
		if !reflect.DeepEqual(closed.Streams[k].Trace, open.Streams[k].Trace) {
			t.Fatalf("stream %d: open trace differs from closed fleet", k)
		}
		if !reflect.DeepEqual(closed.Streams[k].Stats, open.Streams[k].Stats) {
			t.Fatalf("stream %d: open stats differ from closed fleet", k)
		}
	}

	// Arrival-process errors surface instead of panicking.
	short, err := arrivals.NewTrace([]core.Time{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunOpenFleet(seed, n, 2, short, nil); err == nil {
		t.Fatal("overdrawn trace process accepted")
	}
}
