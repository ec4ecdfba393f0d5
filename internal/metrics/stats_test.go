package metrics

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func statsTestTrace(t *testing.T, seed int64, cycles int) *sim.Trace {
	t.Helper()
	sys := core.RandomSystem(rand.New(rand.NewSource(seed)), core.RandomSystemConfig{Actions: 20, DeadlineEvery: 2})
	tr, err := (&sim.Runner{
		Sys:      sys,
		Mgr:      core.NewNumericManager(sys),
		Exec:     sim.Content{Sys: sys, NoiseAmp: 0.35, Seed: uint64(seed)},
		Overhead: sim.IPodOverhead,
		Cycles:   cycles,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSummarizeStatsEqualsSummarize: on any retained trace, the
// stats-route summary must equal the record-scanning Summarize exactly
// — the two are independent implementations, and quality levels are
// small integers so every float accumulation is exact.
func TestSummarizeStatsEqualsSummarize(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		tr := statsTestTrace(t, seed, 1+int(seed%5))
		got := SummarizeStats(tr, statsOfTrace(tr))
		want := Summarize(tr)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: stats summary diverges:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestSummarizeStatsEmptyTrace pins the empty-trace conventions.
func TestSummarizeStatsEmptyTrace(t *testing.T) {
	tr := &sim.Trace{Manager: "x", Cycles: 0}
	got := SummarizeStats(tr, statsOfTrace(tr))
	if !reflect.DeepEqual(got, Summarize(tr)) {
		t.Fatalf("empty-trace summaries diverge: %+v vs %+v", got, Summarize(tr))
	}
}

// TestAggregateStatsEqualsAggregateTraces: the fleet-level equivalence —
// aggregating streamed stats must reproduce the retained-trace
// aggregation field for field, including nil (failed-stream) holes.
func TestAggregateStatsEqualsAggregateTraces(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		var traces []*sim.Trace
		var stats []*sim.StatsSink
		for k := 0; k < 5; k++ {
			if k == 3 && seed%2 == 0 {
				traces = append(traces, nil) // failed stream: skipped by both
				stats = append(stats, nil)
				continue
			}
			tr := statsTestTrace(t, seed*100+int64(k), 2+k)
			traces = append(traces, tr)
			stats = append(stats, statsOfTrace(tr))
		}
		got := AggregateStats(traces, stats)
		want := AggregateTraces(traces)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: fleet aggregation diverges:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}
