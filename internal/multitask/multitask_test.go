package multitask

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// uniformSystem builds an n-action system with per-action average
// avMicros µs (wc = 1.5×) and a final deadline of budgetMicros µs.
func uniformSystem(n int, avMicros, budgetMicros int64, levels int) *core.System {
	tt := core.NewTimingTable(n, levels)
	for i := 0; i < n; i++ {
		for q := 0; q < levels; q++ {
			av := core.Time(avMicros+int64(q)*avMicros/2) * core.Microsecond
			tt.Set(i, core.Level(q), av, av*3/2)
		}
	}
	actions := make([]core.Action, n)
	for i := range actions {
		actions[i] = core.Action{Deadline: core.TimeInf}
	}
	actions[n-1].Deadline = core.Time(budgetMicros) * core.Microsecond
	return core.MustNewSystem(actions, tt)
}

func TestInflateTiming(t *testing.T) {
	tt := core.NewTimingTable(2, 2)
	tt.Set(0, 0, 100, 200)
	tt.Set(0, 1, 150, 300)
	tt.Set(1, 0, 100, 200)
	tt.Set(1, 1, 150, 300)
	out := InflateTiming(tt, 2, 1)
	if out.Av(0, 0) != 200 || out.WC(0, 1) != 600 {
		t.Fatalf("inflation wrong: %v %v", out.Av(0, 0), out.WC(0, 1))
	}
}

func TestInflateTimingRejectsDeflation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("deflation must panic")
		}
	}()
	InflateTiming(core.NewTimingTable(1, 1), 1, 2)
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil); err == nil {
		t.Error("empty task set accepted")
	}
	sys := uniformSystem(10, 100, 3000, 3)
	tk := &Task{Name: "a", Sys: sys, Mgr: core.NewNumericManager(sys), Exec: sim.Average{Sys: sys}}
	if _, err := Run([]*Task{tk}); err == nil {
		t.Error("zero cycles accepted")
	}
	tk.Cycles = 1
	tk2 := &Task{Name: "a", Sys: sys, Mgr: core.NewNumericManager(sys), Exec: sim.Average{Sys: sys}, Cycles: 1}
	if _, err := Run([]*Task{tk, tk2}); err == nil {
		t.Error("duplicate names accepted")
	}
}

func TestSingleTaskMatchesRunner(t *testing.T) {
	// With one task, the EDF scheduler must degenerate to the
	// single-task runner exactly.
	sys := uniformSystem(20, 100, 5000, 4)
	mk := func() *Task {
		return &Task{Name: "solo", Sys: sys, Mgr: core.NewNumericManager(sys),
			Exec: sim.Uniform{Sys: sys, Seed: 5}, Cycles: 3}
	}
	multi, err := Run([]*Task{mk()})
	if err != nil {
		t.Fatal(err)
	}
	single := (&sim.Runner{Sys: sys, Mgr: core.NewNumericManager(sys),
		Exec: sim.Uniform{Sys: sys, Seed: 5}, Overhead: sim.FreeOverhead, Cycles: 3}).MustRun()
	mt := multi.Traces["solo"]
	if mt.Final != single.Final || mt.Misses != single.Misses || len(mt.Records) != len(single.Records) {
		t.Fatalf("EDF single-task diverges from runner: final %v vs %v", mt.Final, single.Final)
	}
	for i := range mt.Records {
		if mt.Records[i].Q != single.Records[i].Q || mt.Records[i].Start != single.Records[i].Start {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestTwoInflatedTasksShareSafely(t *testing.T) {
	// Two identical half-CPU tasks with 2× inflated tables must both
	// meet their deadlines: the managers degrade quality instead.
	n, avM, budget := 20, 100, int64(8000)
	base := uniformSystem(n, int64(avM), budget, 4)
	inflated := InflateTiming(base.Timing(), 2, 1)
	actions := make([]core.Action, n)
	for i := range actions {
		actions[i] = core.Action{Deadline: core.TimeInf}
	}
	actions[n-1].Deadline = core.Time(budget) * core.Microsecond
	sysA := core.MustNewSystem(actions, inflated)
	sysB := core.MustNewSystem(actions, inflated)

	// Execution consumes *real* (uninflated) time.
	mk := func(name string, sys *core.System) *Task {
		return &Task{Name: name, Sys: sys, Mgr: core.NewNumericManager(sys),
			Exec: sim.WorstCase{Sys: base}, Cycles: 4}
	}
	res, err := Run([]*Task{mk("a", sysA), mk("b", sysB)})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMisses() != 0 {
		t.Fatalf("inflated tasks missed %d deadlines", res.TotalMisses())
	}
}

func TestOverloadedTasksMiss(t *testing.T) {
	// Without inflation, two tasks that each assume a full CPU and are
	// driven at worst case must overload and miss — the contrast that
	// motivates the future-work item.
	sys := uniformSystem(20, 100, 3200, 4)
	mk := func(name string) *Task {
		return &Task{Name: name, Sys: sys, Mgr: core.FixedManager{Level: 3},
			Exec: sim.WorstCase{Sys: sys}, Cycles: 3}
	}
	res, err := Run([]*Task{mk("a"), mk("b")})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMisses() == 0 {
		t.Fatal("overload produced no misses; scenario too easy")
	}
}

func TestEDFPrefersEarlierDeadline(t *testing.T) {
	// A short-deadline task must finish its cycle before a long-deadline
	// task completes, even when both are ready at t=0.
	urgent := uniformSystem(5, 100, 1000, 2)
	lazy := uniformSystem(5, 100, 100000, 2)
	res, err := Run([]*Task{
		{Name: "urgent", Sys: urgent, Mgr: core.FixedManager{Level: 0}, Exec: sim.Average{Sys: urgent}, Cycles: 1},
		{Name: "lazy", Sys: lazy, Mgr: core.FixedManager{Level: 0}, Exec: sim.Average{Sys: lazy}, Cycles: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	urgentEnd := res.Traces["urgent"].Records[4].End()
	lazyEnd := res.Traces["lazy"].Records[4].End()
	if urgentEnd >= lazyEnd {
		t.Fatalf("EDF ran lazy (%v) before urgent (%v)", lazyEnd, urgentEnd)
	}
	if res.Traces["urgent"].Misses != 0 {
		t.Fatal("urgent task missed under EDF")
	}
}

// TestTaskSinkMatchesRetainedRun: a task run under a sink must leave
// its trace record-free while the sink observes the identical record
// sequence a retained run stores — the sim.Runner sink contract carried
// over to the EDF interleaver.
func TestTaskSinkMatchesRetainedRun(t *testing.T) {
	mk := func(sink sim.Sink) []*Task {
		sys := uniformSystem(6, 200, 4000, 3)
		return []*Task{
			{Name: "a", Sys: sys, Mgr: core.NewNumericManager(sys),
				Exec: sim.Content{Sys: sys, NoiseAmp: 0.2, Seed: 5}, Cycles: 3,
				Overhead: sim.IPodOverhead, Sink: sink},
			{Name: "b", Sys: sys, Mgr: core.NewNumericManager(sys),
				Exec: sim.Content{Sys: sys, NoiseAmp: 0.2, Seed: 9}, Cycles: 3,
				Overhead: sim.IPodOverhead},
		}
	}
	ref, err := Run(mk(nil))
	if err != nil {
		t.Fatal(err)
	}
	sink := &sim.TraceSink{}
	got, err := Run(mk(sink))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got.Traces["a"].Records); n != 0 {
		t.Fatalf("sunk task retained %d records", n)
	}
	if len(sink.Records) != len(ref.Traces["a"].Records) {
		t.Fatalf("sink saw %d records, retained run stored %d",
			len(sink.Records), len(ref.Traces["a"].Records))
	}
	for j, rec := range sink.Records {
		if rec != ref.Traces["a"].Records[j] {
			t.Fatalf("record %d diverges: %+v vs %+v", j, rec, ref.Traces["a"].Records[j])
		}
	}
	if got.Traces["a"].TotalExec != ref.Traces["a"].TotalExec ||
		got.Traces["a"].Misses != ref.Traces["a"].Misses {
		t.Fatal("scalar trace fields diverge under sink")
	}
}
