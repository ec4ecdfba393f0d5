package fleet

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file is the checkpoint surface of the continuous open engine: a
// deep, self-contained capture of a paused run (OpenCapture) plus the
// restore path that rebuilds a frontier from one. The enabling facts
// are the engine's own invariants — per-stream mutable state is O(1)
// and lives in the arena slabs (sim.State clock/cycle, sim.Trace
// aggregates, StatsSink accumulators), and a stream's trace is a pure
// function of its Runner plus that state (the prefix property) — so a
// resumed run replays the identical decision sequence and the identical
// per-cycle records, making its results byte-identical to the
// uninterrupted run's.
//
// Captures are taken only at quiescence points: the executor is paused
// at a cycle-batch boundary and every published completion has been
// harvested, so all slots are either empty or parked at a batch
// boundary (slotReady) and every slab is at rest. At workers = 1 the
// capture taken after a given event count is fully deterministic; at
// workers > 1 the split between finished and in-flight streams can vary
// with worker timing — the snapshot bytes may differ, but the restored
// run's results never do.

// DepEntry is one scheduled exact departure in a capture.
type DepEntry struct {
	T core.Time
	K int32
}

// DoneStream is a finished stream's harvested outcome in a capture:
// its scalar trace aggregates and sink accumulators (or its bind-time
// error), exactly what the result slabs hold.
type DoneStream struct {
	K     int32
	Err   string // bind-time configuration error; "" = ran successfully
	Trace sim.Trace
	Sink  sim.SinkState
}

// LiveSlot is an in-flight stream's mid-run state in a capture: the
// clock/cycle scalars, the trace aggregates so far, and the sink
// accumulators — everything Step reads and writes. Rebinding the same
// Runner and overwriting its slab cells with these resumes the stream
// exactly where the batch boundary left it.
type LiveSlot struct {
	K     int32
	State sim.State
	Trace sim.Trace
	Sink  sim.SinkState
}

// OpenCapture is a deep snapshot of a paused open run: the frontier's
// event-loop cursors and admission state, the backlog ring, the exact
// departure events not yet retired, every lifecycle verdict so far, and
// the per-stream outcomes split into finished and in-flight. It aliases
// nothing in the engine, holds no pointers into any slab, and together
// with the run's configuration (streams, arrivals, admitter) determines
// the rest of the run exactly. The engine retains no records, so each
// stream's captured state is O(1).
type OpenCapture struct {
	// Events counts the event groups processed so far — the engine's
	// checkpoint-boundary clock.
	Events int64
	// NextArrival is the cursor into the (instant, index)-ordered
	// arrival schedule.
	NextArrival int
	// InService and CPULoad are the admission controller's load inputs.
	InService int
	CPULoad   float64
	// FirstArrival, LastT and LastDep are the observation-window
	// cursors behind OpenResult.End/Final.
	FirstArrival, LastT, LastDep core.Time
	// BacklogIntegral and MaxBacklog are the backlog accounting
	// accumulated so far.
	BacklogIntegral float64
	MaxBacklog      int
	// Backlog is the FIFO ring's content, head first.
	Backlog []int32
	// Departures are the exact departures scheduled but not yet
	// retired. Order is internal heap layout; restore re-heapifies, and
	// the (t, k) pop order is the same for any layout.
	Departures []DepEntry
	// Lifecycles records every stream's verdict so far, in input order
	// over the population known at capture time.
	Lifecycles []metrics.Lifecycle
	// Done and Live are the per-stream outcomes: harvested results of
	// departed (or bind-failed) streams, and the mid-run state of
	// streams still in service.
	Done []DoneStream
	Live []LiveSlot
}

// checkpoint pauses the executor at a cycle-batch boundary, harvests
// every published completion, captures, and resumes the pool. The
// returned capture is deep: it stays valid across the rest of the run.
func (f *openFrontier) checkpoint() *OpenCapture {
	f.exec.quiesce()
	f.exec.drain(f, false)
	c := f.capture()
	f.exec.release()
	f.tr.Rec(obs.EvCheckpoint, f.lastT, obs.NoStream, obs.NoWorker, f.events)
	return c
}

// capture deep-copies the paused frontier. The executor must be
// quiescent with all completions drained: every slot is then empty or
// parked at a batch boundary, so the slab reads below race nothing, and
// a first pass can count the finished streams, the ready slots and
// their histogram cells that the copy pass then sees unchanged. Every
// slice of the capture is allocated once at its exact length, and all
// exported histograms share one slab.
func (f *openFrontier) capture() *OpenCapture {
	a := f.arena
	slots := int(a.allocated.Load())
	nDone, nLive, cells := 0, 0, 0
	for k := 0; k < f.n; k++ {
		if f.final[k] {
			nDone++
			cells += len(f.sc.stats[k].QualityHist)
		}
	}
	for slot := 0; slot < slots; slot++ {
		if a.status[slot].v.Load() == slotReady {
			nLive++
			cells += len(a.slotTbl[slot].sinks[a.slotIdx[slot]].QualityHist)
		}
	}
	hist := make([]int, cells)
	state := func(s *sim.StatsSink) sim.SinkState {
		n := len(s.QualityHist)
		st := s.StateInto(hist[:0:n])
		hist = hist[n:]
		return st
	}

	c := &OpenCapture{
		Events:       f.events,
		NextArrival:  f.ai,
		InService:    f.inServe,
		CPULoad:      f.cpuLoad,
		FirstArrival: f.res.FirstArrival,
		LastT:        f.lastT,
		LastDep:      f.lastDep,

		BacklogIntegral: f.res.BacklogIntegral,
		MaxBacklog:      f.res.MaxBacklog,
		Lifecycles:      append([]metrics.Lifecycle(nil), f.res.Lifecycles[:f.n]...),
	}
	if f.blLen > 0 {
		c.Backlog = make([]int32, f.blLen)
		for i := 0; i < f.blLen; i++ {
			c.Backlog[i] = f.backlog[(f.blHead+i)%len(f.backlog)]
		}
	}
	if len(f.dep) > 0 {
		c.Departures = make([]DepEntry, len(f.dep))
		for i, e := range f.dep {
			c.Departures[i] = DepEntry{T: e.t, K: e.k}
		}
	}
	if nDone > 0 {
		c.Done = make([]DoneStream, 0, nDone)
	}
	for k := 0; k < f.n; k++ {
		if !f.final[k] {
			continue
		}
		d := DoneStream{K: int32(k), Sink: state(&f.sc.stats[k])}
		if err := f.res.Streams[k].Err; err != nil {
			d.Err = err.Error()
		} else {
			d.Trace = f.sc.traces[k]
		}
		c.Done = append(c.Done, d)
	}
	if nLive > 0 {
		c.Live = make([]LiveSlot, 0, nLive)
	}
	for slot := 0; slot < slots; slot++ {
		if a.status[slot].v.Load() != slotReady {
			continue
		}
		tbl, idx := a.slotTbl[slot], a.slotIdx[slot]
		c.Live = append(c.Live, LiveSlot{
			K:     a.slotStream[slot],
			State: tbl.states[idx],
			Trace: tbl.traces[idx],
			Sink:  state(&tbl.sinks[idx]),
		})
	}
	return c
}

// errCorruptCapture rejects a capture whose cross-references do not fit
// the run it is being restored into — the defence behind the checksum:
// a snapshot that decodes but does not cohere must fail loudly, never
// index out of range.
func errCorruptCapture(what string) error {
	return fmt.Errorf("fleet: capture does not match the run configuration: %s", what)
}

// restore rebuilds a freshly laid-out frontier from a capture of the
// same configuration. The executor must already be attached; live
// streams are rebound into arena slots, their slab cells overwritten
// with the captured mid-run state, and handed to the executor exactly
// as a fresh admission would be. The departure bound of a live stream
// is recomputed as admission instant + minFin — identical to the value
// the uninterrupted run had — so the event gate resumes with the same
// information the serial spec's loop would hold.
func (f *openFrontier) restore(c *OpenCapture) error {
	if len(c.Lifecycles) > f.n {
		return errCorruptCapture(fmt.Sprintf("%d lifecycles for %d streams", len(c.Lifecycles), f.n))
	}
	if c.NextArrival < 0 || c.NextArrival > f.n {
		return errCorruptCapture(fmt.Sprintf("arrival cursor %d out of range", c.NextArrival))
	}
	f.events = c.Events
	f.ai = c.NextArrival
	f.inServe = c.InService
	f.cpuLoad = c.CPULoad
	f.lastT = c.LastT
	f.lastDep = c.LastDep
	f.res.FirstArrival = c.FirstArrival
	f.res.BacklogIntegral = c.BacklogIntegral
	f.res.MaxBacklog = c.MaxBacklog
	copy(f.res.Lifecycles, c.Lifecycles)

	if len(f.backlog) < len(c.Backlog) {
		f.backlog = make([]int32, len(c.Backlog)+openChunkMin)
	}
	copy(f.backlog, c.Backlog)
	f.blHead, f.blLen = 0, len(c.Backlog)

	for _, d := range c.Done {
		k := int(d.K)
		if k < 0 || k >= f.n {
			return errCorruptCapture(fmt.Sprintf("finished stream %d out of range", k))
		}
		f.final[k] = true
		sr := &f.res.Streams[k]
		if d.Err != "" {
			sr.Err = errors.New(d.Err)
		} else {
			f.sc.traces[k] = d.Trace
			sr.Trace = &f.sc.traces[k]
		}
		// The sink returns to its slab window with harvestSlot's copy
		// discipline (an empty histogram is nil, not zero-length).
		s := &f.sc.stats[k]
		base := k * f.maxLevels
		s.Init(f.sc.hist[base : base : base+f.maxLevels])
		s.RestoreState(d.Sink)
		if len(s.QualityHist) == 0 {
			s.QualityHist = nil
		}
		sr.Stats = s
	}
	for _, e := range c.Departures {
		if e.K < 0 || int(e.K) >= f.n {
			return errCorruptCapture(fmt.Sprintf("departure of stream %d out of range", e.K))
		}
		depPush(&f.dep, depEvent{t: e.T, k: e.K})
	}
	// A queued stream has not been admitted: a backlog entry naming a
	// finished or live stream, or one queued twice, would run that stream
	// a second time once capacity frees.
	busy := make([]bool, f.n)
	for _, e := range c.Live {
		if k := int(e.K); k >= 0 && k < f.n {
			busy[k] = true
		}
	}
	for _, k := range c.Backlog {
		if k < 0 || int(k) >= f.n || f.final[k] || busy[k] {
			return errCorruptCapture(fmt.Sprintf("backlog stream %d out of range, finished, live or queued twice", k))
		}
		busy[k] = true
	}
	for i := range c.Live {
		e := &c.Live[i]
		k := int(e.K)
		if k < 0 || k >= f.n || f.final[k] {
			return errCorruptCapture(fmt.Sprintf("live stream %d out of range or already finished", k))
		}
		slot := f.arena.bind(&f.streams[k], k)
		if err := f.arena.err(slot); err != nil {
			return fmt.Errorf("fleet: restore: stream %d no longer binds: %w", k, err)
		}
		tbl, idx := f.arena.slotTbl[slot], f.arena.slotIdx[slot]
		tbl.states[idx] = e.State
		tbl.traces[idx] = e.Trace
		tbl.sinks[idx].RestoreState(e.Sink)
		depPush(&f.pend, depEvent{t: f.res.Lifecycles[k].Admitted + f.minFin[k], k: int32(k)})
		f.arena.status[slot].v.Store(slotReady)
		f.starts++
	}
	// One batched wake for every restored live slot — the executor sees
	// the restore exactly as one admission burst.
	f.flushStarts()
	return nil
}

// CheckpointFunc receives a capture taken at a quiescent event
// boundary. Returning an error aborts the run with that error — the
// hook by which a driver persists snapshots and by which the fault
// harness injects a crash at an exact boundary.
type CheckpointFunc func(c *OpenCapture) error

// OpenRunStatsCheckpointed is OpenRunStats with a checkpoint stream:
// after every multiple of `every` processed event groups the engine
// pauses at a cycle-batch quiescence point, captures, and hands the
// capture to fn. resume, when non-nil, restores a previous capture of
// the identical configuration first, and the run continues exactly
// where that capture cut: the completed run's traces, lifecycles and
// admission decisions are byte-identical to the uninterrupted run's at
// any (workers, batch) — the crash-safety property the checkpoint
// package builds on.
func OpenRunStatsCheckpointed(cfg OpenConfig, resume *OpenCapture, every int64, fn CheckpointFunc) (*OpenResult, error) {
	ol, err := loadOpen(&cfg)
	if err != nil {
		return nil, err
	}
	f := ol.f
	if resume != nil {
		if err := f.restore(resume); err != nil {
			ol.Abort()
			return nil, err
		}
	}
	for f.step(core.TimeInf) {
		if every > 0 && fn != nil && f.events%every == 0 {
			if err := fn(f.checkpoint()); err != nil {
				ol.Abort()
				return nil, err
			}
		}
	}
	return ol.Close()
}
