package sim

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

func TestSweepMatchesSequentialRuns(t *testing.T) {
	sys := calmSystem(t, 80)
	mk := func(seed uint64) *Runner {
		return &Runner{Sys: sys, Mgr: core.NewNumericManager(sys),
			Exec: Uniform{Sys: sys, Seed: seed}, Overhead: FreeOverhead, Cycles: 2}
	}
	var points []sweepPoint
	for seed := uint64(0); seed < 16; seed++ {
		points = append(points, sweepPoint{Label: fmt.Sprintf("seed-%d", seed), Runner: mk(seed)})
	}
	results := sweep(points)
	if len(results) != 16 {
		t.Fatalf("result count %d", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label, r.Err)
		}
		if r.Label != fmt.Sprintf("seed-%d", i) {
			t.Fatalf("results out of order: %q at %d", r.Label, i)
		}
		// Each concurrent run must equal its sequential twin exactly.
		seq := mk(uint64(i)).MustRun()
		if r.Trace.Final != seq.Final || r.Trace.TotalExec != seq.TotalExec {
			t.Fatalf("%s: concurrent run diverged from sequential", r.Label)
		}
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	sys := calmSystem(t, 10)
	results := sweep([]sweepPoint{
		{Label: "nil-runner"},
		{Label: "bad", Runner: &Runner{Sys: sys}},
		{Label: "good", Runner: &Runner{Sys: sys, Mgr: core.FixedManager{Level: 0},
			Exec: Average{Sys: sys}, Overhead: FreeOverhead, Cycles: 1}},
	})
	if results[0].Err == nil || results[1].Err == nil {
		t.Fatal("errors not propagated")
	}
	if results[2].Err != nil || results[2].Trace == nil {
		t.Fatal("valid point failed")
	}
}

func TestSweepEmpty(t *testing.T) {
	if got := sweep(nil); len(got) != 0 {
		t.Fatal("empty sweep should return empty results")
	}
}
