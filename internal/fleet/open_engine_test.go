package fleet

import (
	"reflect"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/multitask"
	"repro/internal/obs"
	"repro/internal/sim"
)

// skewedStreams builds an open-engine stress population: stream lengths
// vary by ~an order of magnitude (so claim/steal interleavings are
// irregular and stragglers would be visible), a sprinkling of
// work-conserving streams exercises the frontier's trivial departure
// bound (forced lock-step resolution), and one invalid stream exercises
// the zero-service bind-failure path under every policy.
func skewedStreams(t *testing.T, n int, baseSeed uint64) []Stream {
	t.Helper()
	streams := mixedStreams(t, n, 1, baseSeed)
	for k := range streams {
		streams[k].Runner.Cycles = 1 + (k*5)%9
		if k%6 == 5 {
			streams[k].Runner.WorkConserving = true
		}
	}
	if n > 13 {
		streams[13].Runner.Cycles = 0 // invalid: fails at bind
	}
	return streams
}

// compareOpen asserts two open results are byte-identical in everything
// the engine guarantees: stream results (traces/stats/errors),
// lifecycles, backlog accounting and admission-verdict counts.
func compareOpen(t *testing.T, label string, want, got *OpenResult) {
	t.Helper()
	if !reflect.DeepEqual(want.OpenObservations, got.OpenObservations) {
		t.Fatalf("%s: lifecycles or backlog diverged from the serial spec", label)
	}
	if want.Admitted != got.Admitted || want.Delayed != got.Delayed || want.Shed != got.Shed {
		t.Fatalf("%s: admission counts diverged: want %d/%d/%d, got %d/%d/%d", label,
			want.Admitted, want.Delayed, want.Shed, got.Admitted, got.Delayed, got.Shed)
	}
	if !reflect.DeepEqual(want.Streams, got.Streams) {
		t.Fatalf("%s: stream results diverged from the serial spec", label)
	}
}

// TestOpenContinuousMatchesSerialSpec is the continuous engine's
// acceptance property: for a stress population (streams ≫ workers,
// skewed lengths, a bind failure, work-conserving members) under every
// arrival model × admission policy, the wave-free engine reproduces the
// serial spec byte for byte at any (workers, batch) — with one
// scratch reused across every shape, so stale-state bugs cannot hide.
func TestOpenContinuousMatchesSerialSpec(t *testing.T) {
	const n = 36
	streams := skewedStreams(t, n, 29)
	u := multitask.Utilization(streams[0].Runner.Sys, streams[0].Runner.Sys.QMin(), streams[0].Runner.Period)
	admitters := []Admitter{
		AdmitAll{},
		CapK{K: 3, Queue: -1},
		CapK{K: 2, Queue: 2},
		Budget{CPU: 2.5 * u, Queue: -1},
		Budget{CPU: 2.5 * u, Queue: 3},
	}
	shapes := []struct{ workers, batch int }{{1, 0}, {2, 1}, {4, 32}, {8, 3}}
	scratch := NewOpenScratch()
	for model, times := range openProcesses(t, n) {
		for _, adm := range admitters {
			ref, err := OpenRunStatsSerial(OpenConfig{Streams: streams, Arrivals: times, Admit: adm, Workers: 3})
			if err != nil {
				t.Fatalf("%s/%s: %v", model, adm.Name(), err)
			}
			for _, shape := range shapes {
				got, err := OpenRunStats(OpenConfig{
					Streams:     streams,
					Arrivals:    times,
					Admit:       adm,
					Workers:     shape.workers,
					BatchCycles: shape.batch,
					Scratch:     scratch,
				})
				if err != nil {
					t.Fatalf("%s/%s: %v", model, adm.Name(), err)
				}
				label := model + "/" + adm.Name()
				compareOpen(t, label, ref, got)
			}
		}
	}
}

// TestOpenRetainedContinuousMatchesSerial covers the records: the
// continuous engine exports record-for-record the same traces as the
// serial spec.
func TestOpenRetainedContinuousMatchesSerial(t *testing.T) {
	streams := skewedStreams(t, 18, 31)
	times, err := arrivals.Bursty{GapOn: 5 * core.Millisecond, MeanOn: 20 * core.Millisecond,
		MeanOff: 60 * core.Millisecond, Seed: 17}.Times(len(streams))
	if err != nil {
		t.Fatal(err)
	}
	adm := CapK{K: 3, Queue: -1}
	ref, err := recorded(OpenRunStatsSerial, OpenConfig{Streams: streams, Arrivals: times, Admit: adm, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := recorded(OpenRunStats, OpenConfig{Streams: streams, Arrivals: times, Admit: adm, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		compareOpen(t, "recorded", ref, got)
	}
}

// TestOpenScratchReuseAcrossConfigs reuses one scratch across runs of
// different shapes — population size, slab shape (hetStreams have 4
// quality levels, mixedStreams 6, so the arena drops its chunks),
// policy, worker count — and checks each against a scratch-free run:
// nothing from an earlier run may leak into a later one.
func TestOpenScratchReuseAcrossConfigs(t *testing.T) {
	big := skewedStreams(t, 24, 41)
	small := mixedStreams(t, 5, 2, 43)
	het := hetStreams(t, 5, 43)
	u := multitask.Utilization(big[0].Runner.Sys, big[0].Runner.Sys.QMin(), big[0].Runner.Period)
	poisson, err := arrivals.Poisson{MeanGap: 10 * core.Millisecond, Seed: 23}.Times(len(big))
	if err != nil {
		t.Fatal(err)
	}
	together, err := arrivals.Fixed{}.Times(len(small))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  OpenConfig
	}{
		{"big-stats-cap", OpenConfig{Streams: big, Arrivals: poisson, Admit: CapK{K: 2, Queue: 1}, Workers: 2}},
		{"small-het-all", OpenConfig{Streams: het, Arrivals: together, Workers: 4}},
		{"big-stats-budget", OpenConfig{Streams: big, Arrivals: poisson, Admit: Budget{CPU: 2 * u, Queue: -1}, Workers: 1}},
		{"small-stats-all", OpenConfig{Streams: small, Arrivals: together, Workers: 1}},
	}
	scratch := NewOpenScratch()
	for _, tc := range cases {
		want, err := OpenRunStats(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cfg := tc.cfg
		cfg.Scratch = scratch
		got, err := OpenRunStats(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Compare before the scratch's next run: got aliases it.
		compareOpen(t, tc.name, want, got)
	}
}

// countSink counts observed records; safe for one stream each.
type countSink struct{ n int }

func (s *countSink) Observe(sim.Record) { s.n++ }

// TestOpenScratchExportReplaced pins the export hook against scratch
// reuse: chunks retained from an earlier run must tee into the *new*
// run's export sinks, not the closure they were grown with (a run
// without export followed by one with export previously left retained
// chunks exporting nothing).
func TestOpenScratchExportReplaced(t *testing.T) {
	streams := mixedStreams(t, 6, 2, 53)
	times, err := arrivals.Fixed{}.Times(len(streams))
	if err != nil {
		t.Fatal(err)
	}
	scratch := NewOpenScratch()
	cfg := OpenConfig{Streams: streams, Arrivals: times, Workers: 2, Scratch: scratch}
	if _, err := OpenRunStats(cfg); err != nil { // grows chunks with a nil export
		t.Fatal(err)
	}
	sinks := make([]countSink, len(streams))
	cfg.Export = func(k int, _ string) sim.Sink { return &sinks[k] }
	res, err := OpenRunStats(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := range streams {
		if want := res.Streams[k].Stats.Records; sinks[k].n != want {
			t.Fatalf("stream %d: export sink saw %d of %d records (stale chunk export hook?)", k, sinks[k].n, want)
		}
	}
}

// TestOpenSteadyStateAllocationFree is the open-engine mirror of
// TestStreamStepAllocationFree: once the scratch is warm, a whole
// steady-state open run — arrival ordering, admission decisions, slot
// binding, execution, harvest and lifecycle bookkeeping — performs zero
// heap allocations under StatsSink at workers = 1 (the goroutine-free
// inline executor; a concurrent pool costs O(workers) allocations per
// run for its stacks, which the benchmark rows bound).
func TestOpenSteadyStateAllocationFree(t *testing.T) {
	streams := mixedStreams(t, 8, 3, 47)
	times, err := arrivals.Poisson{MeanGap: 15 * core.Millisecond, Seed: 9}.Times(len(streams))
	if err != nil {
		t.Fatal(err)
	}
	cfg := OpenConfig{
		Streams:  streams,
		Arrivals: times,
		Admit:    CapK{K: 3, Queue: -1},
		Workers:  1,
		Scratch:  NewOpenScratch(),
	}
	run := func() {
		res, err := OpenRunStats(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Admitted != len(streams) {
			t.Fatalf("admitted %d of %d", res.Admitted, len(streams))
		}
	}
	run() // warm the scratch: chunks, heaps and result slabs allocate once
	if allocs := testing.AllocsPerRun(32, run); allocs != 0 {
		t.Fatalf("steady-state open run allocates %.2f times per run, want 0", allocs)
	}

	// The metric hooks must not cost the property: the same steady
	// state with the full instrument bundle enabled stays at zero.
	cfg.Obs = obs.NewFleetMetrics(obs.NewRegistry("t"))
	run()
	if allocs := testing.AllocsPerRun(32, run); allocs != 0 {
		t.Fatalf("steady-state open run with metrics allocates %.2f times per run, want 0", allocs)
	}

	// The incremental driver inherits the contract through
	// OpenLiveConfig.Scratch: a warm feed-by-feed run — create, feed,
	// advance, state reads, close — is just as allocation-free, which is
	// what makes a cluster instance's steady state free in turn.
	sc := NewOpenScratch()
	maxLevels := 0
	for k := range streams {
		maxLevels = max(maxLevels, streams[k].Runner.Sys.NumLevels())
	}
	live := func() {
		ol := NewOpenLive(OpenLiveConfig{Admit: cfg.Admit, Workers: 1, MaxLevels: maxLevels, Scratch: sc})
		for k, s := range streams {
			if err := ol.Advance(times[k] - 1); err != nil {
				t.Fatal(err)
			}
			_ = ol.Backlog() + ol.InService()
			_ = ol.CPULoad()
			if err := ol.Feed(s, times[k]); err != nil {
				t.Fatal(err)
			}
		}
		res, err := ol.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Admitted != len(streams) {
			t.Fatalf("admitted %d of %d", res.Admitted, len(streams))
		}
	}
	live()
	if allocs := testing.AllocsPerRun(32, live); allocs != 0 {
		t.Fatalf("steady-state live run allocates %.2f times per run, want 0", allocs)
	}
}
