// Package multitask implements the conclusion's "adaption to multiple
// tasks" direction: several cyclic parameterized systems sharing one CPU,
// each under its own Quality Manager, interleaved at action granularity
// by an EDF (earliest absolute deadline first) scheduler.
//
// The single-task theory assumes a dedicated CPU, so each task's timing
// tables must be inflated by its share of the processor before region
// construction (InflateTiming); with a consistent inflation the per-task
// managers retain their safety margins, which the tests demonstrate, and
// without it overload shows up as deadline misses — the gap this
// future-work item was about.
package multitask

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Task is one cyclic application under quality management.
type Task struct {
	Name     string
	Sys      *core.System
	Mgr      core.Manager
	Exec     sim.ExecModel
	Period   core.Time // cycle arrival period; 0 = last deadline
	Cycles   int
	Overhead sim.OverheadModel
	// Sink, when non-nil, observes the task's records instead of the
	// trace retaining them (same contract as sim.Runner.Sink): the
	// task's Trace then carries only scalar aggregates.
	Sink sim.Sink
}

// InflateTiming scales a timing table by num/den, modelling a task that
// owns only den/num of the CPU (e.g. 2/1 for half the processor). Use it
// to build per-task systems whose managers stay safe under sharing.
func InflateTiming(tt *core.TimingTable, num, den int64) *core.TimingTable {
	if num <= 0 || den <= 0 || num < den {
		panic(fmt.Sprintf("multitask: inflation %d/%d must be ≥ 1", num, den))
	}
	out := core.NewTimingTable(tt.NumActions(), tt.NumLevels())
	for i := 0; i < tt.NumActions(); i++ {
		for q := 0; q < tt.NumLevels(); q++ {
			l := core.Level(q)
			out.Set(i, l,
				tt.Av(i, l)*core.Time(num)/core.Time(den),
				tt.WC(i, l)*core.Time(num)/core.Time(den))
		}
	}
	return out
}

// taskState tracks progress of one task through its cycles.
type taskState struct {
	task    *Task
	period  core.Time
	cycle   int
	index   int
	pending int
	curQ    core.Level
	done    bool
	lastRun int64 // dispatch sequence number, for fair tie-breaking
}

// arrival returns the absolute arrival instant of the task's current
// cycle.
func (st *taskState) arrival() core.Time {
	return core.Time(st.cycle) * st.period
}

// deadline returns the absolute deadline of the task's current cycle's
// last deadline action — the EDF key.
func (st *taskState) deadline() core.Time {
	return st.arrival() + st.task.Sys.LastDeadline()
}

// Result bundles the per-task traces of a shared run.
type Result struct {
	Traces map[string]*sim.Trace
	Final  core.Time
}

// TotalMisses sums deadline misses across tasks.
func (r *Result) TotalMisses() int {
	n := 0
	//detlint:allow nondeterminism commutative integer sum, order cannot reach the result
	for _, tr := range r.Traces {
		n += tr.Misses
	}
	return n
}

// Run interleaves the tasks on one simulated CPU under EDF at action
// granularity and returns per-task traces.
func Run(tasks []*Task) (*Result, error) {
	if len(tasks) == 0 {
		return nil, errors.New("multitask: no tasks")
	}
	states := make([]*taskState, len(tasks))
	res := &Result{Traces: map[string]*sim.Trace{}}
	for i, tk := range tasks {
		if tk.Sys == nil || tk.Mgr == nil || tk.Exec == nil || tk.Cycles <= 0 {
			return nil, fmt.Errorf("multitask: task %q incomplete", tk.Name)
		}
		period := tk.Period
		if period == 0 {
			period = tk.Sys.LastDeadline()
		}
		states[i] = &taskState{task: tk, period: period}
		if _, dup := res.Traces[tk.Name]; dup {
			return nil, fmt.Errorf("multitask: duplicate task name %q", tk.Name)
		}
		res.Traces[tk.Name] = &sim.Trace{Manager: tk.Mgr.Name(), Period: period, Cycles: tk.Cycles}
	}

	t := core.Time(0)
	var seq int64
	for {
		// Pick the ready task with the earliest deadline; ties go to
		// the least recently dispatched task, so tasks with aligned
		// deadlines interleave at action granularity (which is what
		// the per-task timing inflation models). If none is ready,
		// jump to the next arrival.
		var pick *taskState
		nextArrival := core.TimeInf
		for _, st := range states {
			if st.done {
				continue
			}
			if st.arrival() > t {
				nextArrival = core.MinTime(nextArrival, st.arrival())
				continue
			}
			if pick == nil || st.deadline() < pick.deadline() ||
				(st.deadline() == pick.deadline() && st.lastRun < pick.lastRun) {
				pick = st
			}
		}
		if pick == nil {
			if nextArrival.IsInf() {
				break // all tasks finished
			}
			for _, st := range states {
				if !st.done && st.arrival() == nextArrival {
					res.Traces[st.task.Name].TotalIdle += nextArrival - t
				}
			}
			t = nextArrival
			continue
		}

		st := pick
		seq++
		st.lastRun = seq
		tr := res.Traces[st.task.Name]
		rec := sim.Record{Cycle: st.cycle, Index: st.index, Deadline: core.TimeInf}
		rel := t - st.arrival()
		if st.pending == 0 {
			d := st.task.Mgr.Decide(st.index, rel)
			oh := st.task.Overhead.Cost(d.Work)
			t += oh
			st.curQ = d.Q
			st.pending = d.Steps
			rec.Decision = true
			rec.Steps = d.Steps
			rec.Overhead = oh
			tr.TotalOverhead += oh
			tr.Decisions++
		}
		et := st.task.Exec.Actual(st.cycle, st.index, st.curQ)
		rec.Q = st.curQ
		rec.Start = t
		rec.Exec = et
		t += et
		tr.TotalExec += et
		st.pending--
		if a := st.task.Sys.Action(st.index); a.HasDeadline() {
			rec.Deadline = st.arrival() + a.Deadline
			if t > rec.Deadline {
				rec.Missed = true
				tr.Misses++
			}
		}
		if st.task.Sink != nil {
			st.task.Sink.Observe(rec)
		} else {
			tr.Records = append(tr.Records, rec)
		}

		st.index++
		if st.index == st.task.Sys.NumActions() {
			st.index = 0
			st.pending = 0
			st.cycle++
			if st.cycle == st.task.Cycles {
				st.done = true
			}
		}
	}
	res.Final = t
	for _, st := range states {
		res.Traces[st.task.Name].Final = t
	}
	return res, nil
}
