package sim

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/regions"
)

func streamRunner(seed int64) *Runner {
	sys := randSys(seed, core.RandomSystemConfig{Actions: 40})
	tab := regions.BuildTDTable(sys)
	return &Runner{
		Sys:      sys,
		Mgr:      regions.NewSymbolicManager(tab),
		Exec:     Content{Sys: sys, NoiseAmp: 0.3, Seed: uint64(seed)},
		Overhead: IPodOverhead,
		Cycles:   6,
	}
}

func TestStreamStepMatchesRun(t *testing.T) {
	full := streamRunner(41).MustRun()
	st, err := streamRunner(41).Stream()
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for !st.Done() {
		if !st.Step() {
			t.Fatal("Step returned false before Done")
		}
		steps++
		if st.CyclesRun() != steps {
			t.Fatalf("CyclesRun = %d after %d steps", st.CyclesRun(), steps)
		}
		if st.Trace().Final != st.Clock() {
			t.Fatal("partial trace Final must track the stream clock")
		}
	}
	if steps != 6 {
		t.Fatalf("stream ran %d cycles, want 6", steps)
	}
	if st.Step() {
		t.Fatal("Step past the last cycle must be a no-op")
	}
	if !reflect.DeepEqual(st.Trace(), full) {
		t.Fatal("stepped trace differs from Run trace")
	}
}

func TestStreamPrefixIsShorterRun(t *testing.T) {
	st, err := streamRunner(42).Stream()
	if err != nil {
		t.Fatal(err)
	}
	st.Step()
	st.Step()
	short := streamRunner(42)
	short.Cycles = 2
	want := short.MustRun()
	if !reflect.DeepEqual(st.Trace(), want) {
		t.Fatal("2-step prefix trace differs from a 2-cycle run")
	}
}
