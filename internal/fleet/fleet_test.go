package fleet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/regions"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// mixedStreams builds a fleet over the workloads catalog: stream k runs
// workload k mod 3 with its own derived seed — the multi-workload,
// multi-seed shape the engine exists for.
func mixedStreams(t *testing.T, n, cycles int, baseSeed uint64) []Stream {
	t.Helper()
	cat, err := workloads.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"audio-encoder", "sdr-pipeline", "video-decoder"}
	type compiled struct {
		sys *core.System
		tab *regions.TDTable
	}
	byName := map[string]compiled{}
	for _, name := range names {
		sys := cat[name]
		byName[name] = compiled{sys: sys, tab: regions.BuildTDTable(sys)}
	}
	streams := make([]Stream, n)
	for k := 0; k < n; k++ {
		name := names[k%len(names)]
		c := byName[name]
		streams[k] = Stream{
			Name: name,
			Runner: sim.Runner{
				Sys:      c.sys,
				Mgr:      regions.NewSymbolicManager(c.tab),
				Exec:     sim.Content{Sys: c.sys, NoiseAmp: 0.3, Seed: DeriveSeed(baseSeed, k)},
				Overhead: sim.IPodOverhead,
				Cycles:   cycles,
			},
		}
	}
	return streams
}

// recorded runs cfg through run with one sim.TraceSink per stream teed
// in through Export, and puts each sink's records on its executed
// stream's trace — the shape sim.Runner.Run returns. The engine retains
// no records itself, so this is how the tests compare it record for
// record against serial runs and the spec.
func recorded[C Config | OpenConfig, R *Result | *OpenResult](run func(C) (R, error), cfg C) (R, error) {
	var sinks []sim.TraceSink
	export := func(k int, _ string) sim.Sink { return &sinks[k] }
	switch c := any(&cfg).(type) {
	case *Config:
		sinks = make([]sim.TraceSink, len(c.Streams))
		c.Export = export
	case *OpenConfig:
		sinks = make([]sim.TraceSink, len(c.Streams))
		c.Export = export
	}
	res, err := run(cfg)
	if err != nil {
		return res, err
	}
	var streams []StreamResult
	switch r := any(res).(type) {
	case *Result:
		streams = r.Streams
	case *OpenResult:
		streams = r.Streams
	}
	for k := range streams {
		if tr := streams[k].Trace; tr != nil {
			tr.Records = sinks[k].Records
		}
	}
	return res, nil
}

// okTraces returns the traces of the streams that ran, in stream order.
func okTraces(res *Result) []*sim.Trace {
	var out []*sim.Trace
	for _, s := range res.Streams {
		if s.Err == nil {
			out = append(out, s.Trace)
		}
	}
	return out
}

func traceBytes(t *testing.T, tr *sim.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := metrics.WriteTraceCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFleetTraceByteIdenticalToSerial is the engine's core guarantee:
// at the same seed, a fleet stream's trace is byte-identical to the
// serial runner's — parallelism changes wall-clock time, never results.
func TestFleetTraceByteIdenticalToSerial(t *testing.T) {
	streams := mixedStreams(t, 9, 4, 17)
	res, err := recorded(RunStats, Config{Streams: streams, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	for k, s := range streams {
		serial, err := s.Runner.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := res.Streams[k]
		if !reflect.DeepEqual(got.Trace, serial) {
			t.Fatalf("stream %d (%s): fleet trace differs from serial run", k, s.Name)
		}
		if !bytes.Equal(traceBytes(t, got.Trace), traceBytes(t, serial)) {
			t.Fatalf("stream %d (%s): serialised traces not byte-identical", k, s.Name)
		}
	}
}

// TestFleetDeterministicAcrossWorkerCounts re-runs the same fleet under
// different pool sizes; every worker count must produce the same traces
// in the same stream order.
func TestFleetDeterministicAcrossWorkerCounts(t *testing.T) {
	base, err := recorded(RunStats, Config{Streams: mixedStreams(t, 6, 3, 5), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 16} {
		res, err := recorded(RunStats, Config{Streams: mixedStreams(t, 6, 3, 5), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for k := range base.Streams {
			if !reflect.DeepEqual(res.Streams[k].Trace, base.Streams[k].Trace) {
				t.Fatalf("workers=%d: stream %d trace depends on worker count", workers, k)
			}
		}
	}
}

// TestFleetStressStreamsOverWorkers oversubscribes the pool (streams ≫
// workers) on a shared stateless manager; with -race this doubles as
// the engine's data-race check.
func TestFleetStressStreamsOverWorkers(t *testing.T) {
	sys := core.RandomSystem(rand.New(rand.NewSource(3)), core.RandomSystemConfig{Actions: 25})
	tab := regions.BuildTDTable(sys)
	mgr := regions.NewSymbolicManager(tab) // shared: stateless by design
	const n = 96
	streams := make([]Stream, n)
	for k := range streams {
		streams[k] = Stream{
			Name: "s",
			Runner: sim.Runner{
				Sys:    sys,
				Mgr:    mgr,
				Exec:   sim.Content{Sys: sys, NoiseAmp: 0.4, Seed: DeriveSeed(99, k)},
				Cycles: 4,
			},
		}
	}
	res, err := recorded(RunStats, Config{Streams: streams, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if len(okTraces(res)) != n {
		t.Fatalf("got %d traces, want %d", len(okTraces(res)), n)
	}
	want := sys.NumActions() * 4
	for k, tr := range okTraces(res) {
		if len(tr.Records) != want {
			t.Fatalf("stream %d: %d records, want %d", k, len(tr.Records), want)
		}
	}
}

func TestFromBundleDeterministic(t *testing.T) {
	sys := core.RandomSystem(rand.New(rand.NewSource(8)), core.RandomSystemConfig{Actions: 20})
	bundle, err := controller.Compile(controller.SpecFromSystem("app", sys, []int{1, 4}))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Manager: "relaxed", Cycles: 3, Overhead: sim.IPodOverhead, BaseSeed: 7, NoiseAmp: 0.2}
	mk := func() *Result {
		streams, err := FromBundle(bundle, 5, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := recorded(RunStats, Config{Streams: streams, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	for k := range a.Streams {
		if a.Streams[k].Name != b.Streams[k].Name {
			t.Fatal("stream naming not deterministic")
		}
		if !reflect.DeepEqual(a.Streams[k].Trace, b.Streams[k].Trace) {
			t.Fatalf("stream %d: bundle fleet not reproducible", k)
		}
	}
	if reflect.DeepEqual(a.Streams[0].Trace.Records, a.Streams[1].Trace.Records) {
		t.Fatal("distinct streams should draw distinct content")
	}
	if _, err := FromBundle(bundle, 0, opt); err == nil {
		t.Fatal("FromBundle must reject n=0")
	}
	if _, err := FromBundle(bundle, 2, Options{Manager: "bogus", Cycles: 1}); err == nil {
		t.Fatal("FromBundle must reject unknown managers")
	}
}

func TestFleetErrors(t *testing.T) {
	if _, err := recorded(RunStats, Config{}); err == nil {
		t.Fatal("empty fleet must be rejected")
	}
	streams := mixedStreams(t, 3, 2, 1)
	streams[1].Cycles = 0 // per-stream configuration error
	res, err := recorded(RunStats, Config{Streams: streams, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Streams[1].Err == nil {
		t.Fatal("bad stream must carry its error")
	}
	if res.Streams[0].Err != nil || res.Streams[2].Err != nil {
		t.Fatal("healthy streams must still run")
	}
	if res.Err() == nil {
		t.Fatal("Result.Err must surface the stream error")
	}
	if len(okTraces(res)) != 2 {
		t.Fatalf("%d traces, want the 2 healthy streams", len(okTraces(res)))
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := map[uint64]bool{}
	for k := 0; k < 1000; k++ {
		s := DeriveSeed(1, k)
		if seen[s] {
			t.Fatalf("seed collision at stream %d", k)
		}
		seen[s] = true
		if s != DeriveSeed(1, k) {
			t.Fatal("DeriveSeed must be pure")
		}
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("different bases should give different seeds")
	}
}

// TestRunStatsEqualsRetainedAggregation is the zero-retention engine's
// acceptance property: a fleet run through RunStats (StatsSink per
// stream, no records anywhere) must produce exactly the FleetSummary
// that AggregateTraces yields over the serial runner's retained traces
// on the same seeds — and its scalar traces must match the retained
// ones field for field.
func TestRunStatsEqualsRetainedAggregation(t *testing.T) {
	streams := mixedStreams(t, 9, 4, 23)
	streamed, err := RunStats(Config{Streams: streams, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := streamed.Err(); err != nil {
		t.Fatal(err)
	}

	var retained, traces []*sim.Trace
	var stats []*sim.StatsSink
	for k, s := range streamed.Streams {
		if len(s.Trace.Records) != 0 {
			t.Fatalf("stream %d retained %d records under RunStats", k, len(s.Trace.Records))
		}
		if s.Stats == nil {
			t.Fatalf("stream %d carries no stats", k)
		}
		serial, err := streams[k].Runner.Run()
		if err != nil {
			t.Fatal(err)
		}
		scalar := *serial
		scalar.Records = nil
		if !reflect.DeepEqual(*s.Trace, scalar) {
			t.Fatalf("stream %d: scalar trace diverges between RunStats and the serial runner", k)
		}
		retained = append(retained, serial)
		traces = append(traces, s.Trace)
		stats = append(stats, s.Stats)
	}

	got := metrics.AggregateStats(traces, stats)
	want := metrics.AggregateTraces(retained)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed fleet summary diverges from retained aggregation:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunRejectsPresetSink: the engine owns each stream's sink. A
// caller-set Runner.Sink is replaced by the stream's StatsSink, so it
// observes no record, and the result equals the sink-free run's.
func TestRunRejectsPresetSink(t *testing.T) {
	preset := &sim.TraceSink{}
	streams := mixedStreams(t, 2, 2, 31)
	streams[1].Runner.Sink = preset
	res, err := recorded(RunStats, Config{Streams: streams, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := recorded(RunStats, Config{Streams: mixedStreams(t, 2, 2, 31), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if len(preset.Records) != 0 {
		t.Fatalf("caller-set sink observed %d records; the engine must replace it", len(preset.Records))
	}
	if !reflect.DeepEqual(res.Streams, want.Streams) {
		t.Fatal("a caller-set sink changed the run's result")
	}
}
