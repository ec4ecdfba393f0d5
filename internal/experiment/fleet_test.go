package experiment

import (
	"reflect"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestRunFleetMatchesSerialRunner(t *testing.T) {
	s := Paper(1)
	s.Cycles = 2
	streams, err := s.FleetStreams(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	sinks := make([]sim.TraceSink, len(streams))
	res, err := fleet.RunStats(fleet.Config{Streams: streams, Workers: 2,
		Export: func(k int, _ string) sim.Sink { return &sinks[k] }})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	for k, stream := range streams {
		serial := stream.Runner.MustRun()
		got := *res.Streams[k].Trace
		got.Records = sinks[k].Records
		if !reflect.DeepEqual(&got, serial) {
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
	streams, err := s.FleetStreams(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.RunStats(fleet.Config{Streams: streams})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	var traces []*sim.Trace
	var stats []*sim.StatsSink
	for _, sr := range res.Streams {
		traces = append(traces, sr.Trace)
		stats = append(stats, sr.Stats)
	}
	fs := metrics.AggregateStats(traces, stats)
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
	res, err := fleet.RunStats(fleet.Config{Streams: streams, Workers: 4})
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

// TestRunOpenFleet: the open engine admits the whole paper population
// under an ample cap and its executed traces match the closed fleet's
// (same seeds, same streams — arrivals only shift the lifecycle, never
// the content).
func TestRunOpenFleet(t *testing.T) {
	s := Paper(1)
	s.Cycles = 2
	const n, seed = 3, 9
	streams, err := s.FleetStreams(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	times, err := arrivals.Poisson{MeanGap: s.Period, Seed: 4}.Times(n)
	if err != nil {
		t.Fatal(err)
	}
	open, err := fleet.OpenRunStats(fleet.OpenConfig{Streams: streams, Arrivals: times, Admit: fleet.CapK{K: 2, Queue: -1}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := open.Err(); err != nil {
		t.Fatal(err)
	}
	if open.Admitted != n || open.Shed != 0 {
		t.Fatalf("ample cap admitted %d, shed %d", open.Admitted, open.Shed)
	}
	streams, err = s.FleetStreams(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := fleet.RunStats(fleet.Config{Streams: streams, Workers: 2})
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
}
