package sim

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Record describes the execution of one action instance.
type Record struct {
	// Cycle and Index locate the action instance (cycle = frame number
	// for the encoder workload).
	Cycle, Index int
	// Q is the quality level the action ran at.
	Q core.Level
	// Start is the absolute clock value when the action began (after
	// any quality-management overhead charged ahead of it).
	Start core.Time
	// Exec is the actual execution time of the action.
	Exec core.Time
	// Overhead is the quality-management time charged immediately
	// before this action (zero when the manager was skipped under
	// control relaxation).
	Overhead core.Time
	// Decision reports whether the manager ran before this action.
	Decision bool
	// Steps is the relaxation grant returned by that decision (0 when
	// Decision is false).
	Steps int
	// Deadline is the absolute deadline of this action instance, or
	// TimeInf when the action carries none.
	Deadline core.Time
	// Missed reports a deadline violation by this action instance.
	Missed bool
}

// End returns the absolute completion time of the record's action.
func (r Record) End() core.Time { return r.Start + r.Exec }

// RelStart returns the cycle-relative start time, given the period.
func (r Record) RelStart(period core.Time) core.Time {
	return r.Start - core.Time(r.Cycle)*period
}

// Trace is the full execution record of a controlled run.
type Trace struct {
	Manager       string
	Period        core.Time
	Cycles        int
	Records       []Record
	Final         core.Time // clock at the end of the run
	TotalExec     core.Time // time spent in application actions
	TotalOverhead core.Time // time spent in quality management
	TotalIdle     core.Time // time spent waiting for cycle arrivals
	Decisions     int       // number of manager invocations
	Misses        int       // number of deadline violations
}

// OverheadFraction returns management overhead as a fraction of the
// total busy time (exec + overhead), the §4.2 metric.
func (tr *Trace) OverheadFraction() float64 {
	busy := tr.TotalExec + tr.TotalOverhead
	if busy == 0 {
		return 0
	}
	return float64(tr.TotalOverhead) / float64(busy)
}

// Runner executes a parameterized system cyclically under a Quality
// Manager on the simulated platform.
type Runner struct {
	Sys      *core.System
	Mgr      core.Manager
	Exec     ExecModel
	Overhead OverheadModel
	// Cycles is the number of cycles (frames) to execute.
	Cycles int
	// Period is the cycle arrival period; each cycle c becomes ready at
	// absolute time c·Period and its in-table deadlines are offset by
	// the same amount. Zero selects the system's last deadline.
	Period core.Time
	// WorkConserving lets a cycle start before its arrival instant
	// (batch mode). Off by default: streaming frames are not available
	// early, which matches the encoder experiment.
	WorkConserving bool
	// Sink, when non-nil, receives every Record instead of the trace
	// retaining it: Trace.Records stays empty, the trace carries only
	// its O(1) scalar aggregates, and the stream's memory no longer
	// grows with cycles × actions. Nil keeps the historical
	// full-retention behaviour (equivalent to a TraceSink feeding
	// Trace.Records). The sink sees the identical record sequence
	// either way.
	Sink Sink
}

// Run executes the configured workload and returns its trace. It is the
// batch form of the Stream API: Run drives a Stream to completion, so a
// serial run and a fleet stream share one execution path — their traces
// are identical by construction, not by careful duplication.
func (r *Runner) Run() (*Trace, error) {
	st, err := r.Stream()
	if err != nil {
		return nil, err
	}
	for st.Step() {
	}
	return st.Trace(), nil
}

// State is the hot mutable scalar state of one Stream: the virtual
// clock and the executed-cycle count — everything Step reads and writes
// besides the trace aggregates. It is split out of Stream so a fleet
// engine can keep the states of many streams in one contiguous
// struct-of-arrays slab (the fleet slot arena's chunks) and a worker
// sweeping its range of slots stays in cache instead of pointer-chasing
// heap objects; a stand-alone Stream simply embeds its own.
type State struct {
	// T is the stream's virtual clock.
	T core.Time
	// Cycle counts the cycles executed so far.
	Cycle int
}

// Stream is the incremental form of Runner: one quality-managed stream
// advanced cycle by cycle. Its mutable simulation state (State, Trace)
// lives behind pointers that InitStream can aim at caller-owned slabs,
// so a fleet engine holds many streams as contiguous arrays and
// advances each on its own schedule without the streams interacting.
// A Stream must not be copied after initialisation.
type Stream struct {
	r      *Runner
	period core.Time
	n      int
	tr     *Trace
	sink   Sink   // nil = retain records in tr
	state  *State // points at own for stand-alone streams
	own    State
}

// maxInitialRecords caps the retained trace's preallocation: a long run
// (n·Cycles in the millions) must not pre-commit gigabytes before a
// single cycle executes. Beyond the cap the slice grows geometrically
// as usual. 65,536 records ≈ 6 MB.
const maxInitialRecords = 1 << 16

// Stream validates the runner's configuration and returns the stream
// positioned before its first cycle, with self-owned state and trace.
func (r *Runner) Stream() (*Stream, error) {
	st := new(Stream)
	if err := r.InitStream(st, nil, nil); err != nil {
		return nil, err
	}
	return st, nil
}

// ResolvedPeriod returns the cycle period the stream will run with:
// Period, defaulted to the system's last deadline when it is 0 — the
// single defaulting rule shared by Validate, InitStream, the fleet's
// admission weighting and the qmfleet reference period.
func (r *Runner) ResolvedPeriod() core.Time {
	if r.Period != 0 || r.Sys == nil {
		return r.Period
	}
	return r.Sys.LastDeadline()
}

// Validate reports the configuration error InitStream would return,
// without touching any stream state — the single source of truth for
// bind-time rejection, so callers that must predict it (the open
// fleet's budget accounting) cannot desynchronize from InitStream.
func (r *Runner) Validate() error {
	if r.Sys == nil || r.Mgr == nil || r.Exec == nil {
		return errors.New("sim: runner needs Sys, Mgr and Exec")
	}
	if r.Cycles <= 0 {
		return fmt.Errorf("sim: non-positive cycle count %d", r.Cycles)
	}
	if p := r.ResolvedPeriod(); p <= 0 {
		return fmt.Errorf("sim: non-positive period %v", p)
	}
	return nil
}

// InitStream initialises st in place as a stream of r positioned before
// its first cycle. state and tr, when non-nil, become the stream's
// mutable scalar state and trace — the fleet engine passes pointers
// into its contiguous slabs, so the per-stream hot state is
// struct-of-arrays instead of per-stream heap objects. Nil selects
// self-owned storage (state embedded in st, trace freshly allocated),
// which is what Stream does. Provided cells are reset; st must stay at
// a stable address afterwards.
func (r *Runner) InitStream(st *Stream, state *State, tr *Trace) error {
	if err := r.Validate(); err != nil {
		return err
	}
	period := r.ResolvedPeriod()
	if tr == nil {
		tr = new(Trace)
	}
	*st = Stream{
		r:      r,
		period: period,
		n:      r.Sys.NumActions(),
		sink:   r.Sink,
		tr:     tr,
		state:  state,
	}
	if st.state == nil {
		st.state = &st.own
	}
	*st.state = State{}
	*tr = Trace{
		Manager: r.Mgr.Name(),
		Period:  period,
	}
	if st.sink == nil {
		c := st.n * r.Cycles
		if c > maxInitialRecords {
			c = maxInitialRecords
		}
		tr.Records = make([]Record, 0, c)
	}
	return nil
}

// observe hands one record to the stream's sink, or retains it in the
// trace when no sink is configured (the historical default).
func (st *Stream) observe(rec Record) {
	if st.sink != nil {
		st.sink.Observe(rec)
		return
	}
	st.tr.Records = append(st.tr.Records, rec)
}

// Step executes the stream's next cycle and reports whether it ran one
// (false once all cycles have completed). After every step the trace is
// a valid prefix run — Final tracks the current clock and Cycles the
// cycles executed so far — so a k-step trace equals a k-cycle Run.
//
//detlint:hotpath
func (st *Stream) Step() bool {
	if st.state.Cycle >= st.r.Cycles {
		return false
	}
	c := st.state.Cycle
	tr := st.tr
	t := st.state.T
	base := core.Time(c) * st.period
	if !st.r.WorkConserving && t < base {
		tr.TotalIdle += base - t
		t = base
	}
	pending := 0
	var curQ core.Level
	for i := 0; i < st.n; i++ {
		rec := Record{Cycle: c, Index: i, Deadline: core.TimeInf}
		if pending == 0 {
			d := st.r.Mgr.Decide(i, t-base)
			oh := st.r.Overhead.Cost(d.Work)
			t += oh
			curQ = d.Q
			pending = d.Steps
			rec.Decision = true
			rec.Steps = d.Steps
			rec.Overhead = oh
			tr.TotalOverhead += oh
			tr.Decisions++
		}
		et := st.r.Exec.Actual(c, i, curQ)
		rec.Q = curQ
		rec.Start = t
		rec.Exec = et
		t += et
		tr.TotalExec += et
		pending--
		if a := st.r.Sys.Action(i); a.HasDeadline() {
			rec.Deadline = base + a.Deadline
			if t > rec.Deadline {
				rec.Missed = true
				tr.Misses++
			}
		}
		st.observe(rec)
	}
	st.state.T = t
	st.state.Cycle++
	tr.Cycles = st.state.Cycle
	tr.Final = t
	return true
}

// Done reports whether every cycle has run.
func (st *Stream) Done() bool { return st.state.Cycle >= st.r.Cycles }

// CyclesRun returns how many cycles have executed so far.
func (st *Stream) CyclesRun() int { return st.state.Cycle }

// Clock returns the stream's current virtual time.
func (st *Stream) Clock() core.Time { return st.state.T }

// Trace returns the accumulating trace. It is complete once Done
// reports true; before that it is the valid trace of a shorter run.
func (st *Stream) Trace() *Trace { return st.tr }

// MustRun is Run that panics on configuration errors; for examples and
// benchmarks with statically valid configurations.
func (r *Runner) MustRun() *Trace {
	tr, err := r.Run()
	if err != nil {
		panic(err)
	}
	return tr
}
