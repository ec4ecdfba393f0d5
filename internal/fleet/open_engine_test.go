package fleet

import (
	"reflect"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/multitask"
	"repro/internal/obs"
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
// serial spec byte for byte at any (workers, batch).
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

// TestOpenSteadyStateAllocationFree is the open-engine mirror of
// TestStreamStepAllocationFree. Every run allocates its own working
// memory, but nothing on its steady-state path — arrival ordering,
// admission decisions, slot binding, execution, harvest and lifecycle
// bookkeeping — allocates per stream: at workers = 1 (the goroutine-free
// inline executor; a concurrent pool costs O(workers) allocations per
// run for its stacks, which the benchmark rows bound) a run allocates
// exactly as often at 256 streams as at 16. That holds with the metric
// hooks on, and for the live driver fed one arrival at a time once its
// slabs are reserved.
func TestOpenSteadyStateAllocationFree(t *testing.T) {
	small, large := boundedAllocs(t, OpenRunStats)
	if small != large {
		t.Fatalf("open run allocates %.0f times at 16 streams and %.0f at 256, want the same", small, large)
	}

	// The metric hooks must not cost the property.
	m := obs.NewFleetMetrics(obs.NewRegistry("t"))
	small, large = boundedAllocs(t, func(cfg OpenConfig) (*OpenResult, error) {
		cfg.Obs = m
		return OpenRunStats(cfg)
	})
	if small != large {
		t.Fatalf("open run with metrics allocates %.0f times at 16 streams and %.0f at 256, want the same", small, large)
	}

	// The incremental driver: create, feed, advance, state reads, close.
	small, large = boundedAllocs(t, func(cfg OpenConfig) (*OpenResult, error) {
		n, maxLevels := len(cfg.Streams), 0
		for k := range cfg.Streams {
			maxLevels = max(maxLevels, cfg.Streams[k].Runner.Sys.NumLevels())
		}
		ol := newOpenLive(OpenLiveConfig{Admit: cfg.Admit, Workers: 1, MaxLevels: maxLevels}, nil, n)
		ol.reserve(n)
		for k, s := range cfg.Streams {
			if err := ol.Advance(cfg.Arrivals[k] - 1); err != nil {
				return nil, err
			}
			_ = ol.Backlog() + ol.InService()
			_ = ol.CPULoad()
			if err := ol.Feed(s, cfg.Arrivals[k]); err != nil {
				return nil, err
			}
		}
		return ol.Close()
	})
	if small != large {
		t.Fatalf("live run allocates %.0f times at 16 streams and %.0f at 256, want the same", small, large)
	}
}

// boundedAllocs reports how often one run allocates over the first 16
// and over all 256 streams of one population, at workers = 1. Arrivals
// are Poisson and the queue is bounded (CapK{K: 3, Queue: 2}), so peak
// concurrency — and with it the slot arena, the heaps and the backlog
// ring — is the same at both sizes, and only the population differs.
func boundedAllocs(t *testing.T, run func(OpenConfig) (*OpenResult, error)) (small, large float64) {
	t.Helper()
	streams := mixedStreams(t, 256, 3, 47)
	times, err := arrivals.Poisson{MeanGap: 15 * core.Millisecond, Seed: 9}.Times(len(streams))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		cfg := OpenConfig{Streams: streams[:n], Arrivals: times[:n], Admit: CapK{K: 3, Queue: 2}, Workers: 1}
		return testing.AllocsPerRun(8, func() {
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Admitted+res.Shed != n || res.Admitted == 0 {
				t.Fatalf("%d streams: admitted %d, shed %d", n, res.Admitted, res.Shed)
			}
		})
	}
	return allocs(16), allocs(256)
}
