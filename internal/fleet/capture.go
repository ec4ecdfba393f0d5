package fleet

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file is the checkpoint surface of the continuous open engine: a
// self-contained capture of a paused run (OpenCapture) plus the restore
// path that rebuilds a frontier from one. The enabling facts
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

// ClosedStream is a closed stream's final state in a capture: its
// lifecycle verdict and, unless admission shed it, its outcome — the
// scalar trace aggregates and sink accumulators, or its bind-time error.
// A stream closes once: when it finishes, when it fails to bind (it
// departs the instant it is admitted) or when admission sheds it on
// arrival. Nothing about it changes afterwards.
type ClosedStream struct {
	K         int32
	Lifecycle metrics.Lifecycle
	Err       string        // bind-time configuration error; "" = ran, or was shed
	Trace     sim.Trace     // zero unless the stream ran
	Sink      sim.SinkState // zero for a shed stream
}

// LiveSlot is an in-flight stream's mid-run state in a capture: its
// admission instant and whether it queued first, the clock/cycle
// scalars, the trace aggregates so far, and the sink accumulators —
// everything Step reads and writes. Rebinding the same Runner and
// overwriting its slab cells with these resumes the stream exactly
// where the batch boundary left it.
type LiveSlot struct {
	K        int32
	Admitted core.Time
	Queued   bool
	State    sim.State
	Trace    sim.Trace
	Sink     sim.SinkState
}

// OpenCapture is a snapshot of a paused open run: the frontier's
// event-loop cursors and admission state, the backlog ring, the exact
// departure events not yet retired, the mid-run state of the streams in
// service, and every stream that has closed, in the order they closed.
// Each fed stream is in exactly one place: closed, live, queued, or not
// yet arrived. Together with the run's configuration (streams, arrivals,
// admitter) it determines the rest of the run exactly. The engine
// retains no records, so each stream's captured state is O(1).
//
// Taking a capture copies only the open state. A capture taken from a
// run views that run's result cells for its closed streams, which the
// engine never writes again once a stream has closed, so the capture
// stays valid for as long as it is held.
type OpenCapture struct {
	// Events counts the event groups processed so far — the engine's
	// checkpoint-boundary clock.
	Events int64
	// Streams is the population fed when the capture was taken.
	Streams int
	// NextArrival is the cursor into the (instant, index)-ordered
	// arrival schedule: the streams before it have arrived.
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
	// Live is the mid-run state of the streams in service.
	Live []LiveSlot
	// Closed lists closed streams the capture holds copies of, in close
	// order: all of them in a capture assembled by a decoder. They
	// follow the closed streams a taken capture views, if any;
	// NumClosed and ClosedAt read both as one list.
	Closed []ClosedStream

	view closedView
}

// closedView is a taken capture's window on its run's closed streams:
// the close order up to the capture, and the run's lifecycle and result
// slabs, indexed by stream, of which it reads only the closed streams'
// cells.
type closedView struct {
	order []int32
	lcs   []metrics.Lifecycle
	res   []StreamResult
}

// NumClosed returns the number of streams closed when c was taken.
func (c *OpenCapture) NumClosed() int { return len(c.view.order) + len(c.Closed) }

// ClosedAt returns the i-th stream to close, 0 ≤ i < NumClosed. The
// histogram it returns may be the run's own: read it, do not write it.
func (c *OpenCapture) ClosedAt(i int) ClosedStream {
	if i >= len(c.view.order) {
		return c.Closed[i-len(c.view.order)]
	}
	k := c.view.order[i]
	cs := ClosedStream{K: k, Lifecycle: c.view.lcs[k]}
	if cs.Lifecycle.Shed {
		return cs
	}
	sr := &c.view.res[k]
	cs.Sink = sr.Stats.StateView()
	if sr.Err != nil {
		cs.Err = sr.Err.Error()
	} else {
		cs.Trace = *sr.Trace
	}
	return cs
}

// checkpoint pauses the executor at a cycle-batch boundary, harvests
// every published completion, captures, and resumes the pool.
func (f *openFrontier) checkpoint() *OpenCapture {
	f.exec.quiesce()
	f.exec.drain(f, false)
	c := f.capture()
	f.exec.release()
	f.tr.Rec(obs.EvCheckpoint, f.lastT, obs.NoStream, obs.NoWorker, f.events)
	return c
}

// capture copies the paused frontier's open state and views its closed
// streams. The executor must be quiescent with all completions drained:
// every slot is then empty or parked at a batch boundary, so the slab
// reads below race nothing, and a first pass can count the ready slots
// and their histogram cells that the copy pass then sees unchanged.
// Every slice of the capture is allocated once at its exact length, and
// the live histograms share one slab. Nothing here grows with the
// number of closed streams.
func (f *openFrontier) capture() *OpenCapture {
	a := &f.arena
	slots := int(a.allocated.Load())
	nLive, cells := 0, 0
	for slot := 0; slot < slots; slot++ {
		if a.status[slot].v.Load() == slotReady {
			nLive++
			cells += len(a.slotTbl[slot].sinks[a.slotIdx[slot]].QualityHist)
		}
	}
	hist := make([]int, cells)

	m := len(f.closed)
	c := &OpenCapture{
		Events:       f.events,
		Streams:      f.n,
		NextArrival:  f.ai,
		InService:    f.inServe,
		CPULoad:      f.cpuLoad,
		FirstArrival: f.res.FirstArrival,
		LastT:        f.lastT,
		LastDep:      f.lastDep,

		BacklogIntegral: f.res.BacklogIntegral,
		MaxBacklog:      f.res.MaxBacklog,
		view: closedView{order: f.closed[:m:m], lcs: f.res.Lifecycles[:f.n:f.n],
			res: f.res.Streams[:f.n:f.n]},
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
	if nLive > 0 {
		c.Live = make([]LiveSlot, 0, nLive)
	}
	for slot := 0; slot < slots; slot++ {
		if a.status[slot].v.Load() != slotReady {
			continue
		}
		tbl, idx, k := a.slotTbl[slot], a.slotIdx[slot], a.slotStream[slot]
		s := &tbl.sinks[idx]
		n := len(s.QualityHist)
		lc := &f.res.Lifecycles[k]
		c.Live = append(c.Live, LiveSlot{
			K:        k,
			Admitted: lc.Admitted,
			Queued:   lc.Queued,
			State:    tbl.states[idx],
			Trace:    tbl.traces[idx],
			Sink:     s.StateInto(hist[:0:n]),
		})
		hist = hist[n:]
	}
	return c
}

// errCorruptCapture rejects a capture that does not cohere, or does not
// fit the run it is being restored into — the defence behind the
// checksum: a snapshot that decodes but does not cohere must fail
// loudly, never index out of range or run a stream twice.
func errCorruptCapture(what string) error {
	return fmt.Errorf("fleet: corrupt capture: %s", what)
}

// Validate checks that c is one partition of its population, as far as
// a capture shows without its run: every stream it names is in range and
// in exactly one place — closed, live or queued — and those places hold
// exactly the NextArrival streams that have arrived. Each closed
// stream's lifecycle agrees with its outcome; each pending departure
// names a distinct closed stream that was admitted, at the instant its
// lifecycle departed and not before the frontier's time; and the
// in-service count is the live streams plus the pending departures.
// Memory grows with the streams the capture names, not with the
// population it declares. Restore validates every capture before it
// touches the engine.
func (c *OpenCapture) Validate() error {
	_, err := c.placed()
	return err
}

// placement is a stream's place in a capture: placeLive, placeQueued,
// or i+1 for the i-th stream to close.
type placement struct{ k, place int32 }

const (
	placeLive   int32 = -1
	placeQueued int32 = -2
)

// placed is Validate, returning the streams the capture places, sorted
// by index.
func (c *OpenCapture) placed() ([]placement, error) {
	n := c.Streams
	if n < 0 || c.NextArrival < 0 || c.NextArrival > n {
		return nil, errCorruptCapture(fmt.Sprintf("arrival cursor %d out of range for %d streams", c.NextArrival, n))
	}
	closed := c.NumClosed()
	if m := closed + len(c.Live) + len(c.Backlog); m != c.NextArrival {
		return nil, errCorruptCapture(fmt.Sprintf("%d closed, live and queued streams for %d arrivals", m, c.NextArrival))
	}
	ps := make([]placement, 0, c.NextArrival)
	for i := 0; i < closed; i++ {
		cs := c.ClosedAt(i)
		ps = append(ps, placement{cs.K, int32(i) + 1})
		lc := &cs.Lifecycle
		if !lc.Shed && (lc.Failed != (cs.Err != "") || lc.Departed != lc.Admitted+cs.Trace.Final) {
			return nil, errCorruptCapture(fmt.Sprintf("closed stream %d departs at %v, not at its admission %v plus its service time %v, or fails without an error", cs.K, lc.Departed, lc.Admitted, cs.Trace.Final))
		}
	}
	for _, e := range c.Live {
		ps = append(ps, placement{e.K, placeLive})
	}
	for _, k := range c.Backlog {
		ps = append(ps, placement{k, placeQueued})
	}
	slices.SortFunc(ps, func(a, b placement) int { return cmp.Compare(a.k, b.k) })
	for i, p := range ps {
		if p.k < 0 || int(p.k) >= n {
			return nil, errCorruptCapture(fmt.Sprintf("stream %d out of range", p.k))
		}
		if i > 0 && ps[i-1].k == p.k {
			return nil, errCorruptCapture(fmt.Sprintf("stream %d has two places", p.k))
		}
	}
	if c.InService != len(c.Live)+len(c.Departures) {
		return nil, errCorruptCapture(fmt.Sprintf("%d streams in service, but %d live and %d departing", c.InService, len(c.Live), len(c.Departures)))
	}
	var departing []bool // by position in ps
	if len(c.Departures) > 0 {
		departing = make([]bool, len(ps))
	}
	for _, e := range c.Departures {
		i, ok := slices.BinarySearchFunc(ps, e.K, func(p placement, k int32) int { return cmp.Compare(p.k, k) })
		if !ok || ps[i].place <= 0 || departing[i] {
			return nil, errCorruptCapture(fmt.Sprintf("departure of stream %d, which has not closed or departs twice", e.K))
		}
		departing[i] = true
		if lc := c.ClosedAt(int(ps[i].place - 1)).Lifecycle; lc.Shed || e.T != lc.Departed || e.T < c.LastT {
			return nil, errCorruptCapture(fmt.Sprintf("departure of stream %d at %v, not at its lifecycle's departure or before the frontier's time %v", e.K, e.T, c.LastT))
		}
	}
	return ps, nil
}

// restore rebuilds a freshly laid-out frontier from a capture of the
// same configuration. The capture is validated as a whole first: it must
// cover the run's population, the streams it places must be exactly the
// first NextArrival in (instant, index) order, and each closed stream
// must carry the name and arrival the run fed. The executor must already
// be attached; live streams are rebound into arena slots, their slab
// cells overwritten with the captured mid-run state, and handed to the
// executor exactly as a fresh admission would be. The departure bound of
// a live stream is recomputed as admission instant + minFin — identical
// to the value the uninterrupted run had — so the event gate resumes
// with the same information the serial spec's loop would hold.
func (f *openFrontier) restore(c *OpenCapture) error {
	if c.Streams != f.n {
		return errCorruptCapture(fmt.Sprintf("capture covers %d streams, the run has %d", c.Streams, f.n))
	}
	ps, err := c.placed()
	if err != nil {
		return err
	}
	placed := make([]bool, f.n)
	for _, p := range ps {
		placed[p.k] = true
	}
	for _, k := range f.order[:c.NextArrival] {
		if !placed[k] {
			return errCorruptCapture(fmt.Sprintf("stream %d has arrived but has no place", k))
		}
	}
	for i := 0; i < c.NumClosed(); i++ {
		cs := c.ClosedAt(i)
		if lc := &f.res.Lifecycles[cs.K]; cs.Lifecycle.Name != lc.Name || cs.Lifecycle.Arrival != lc.Arrival {
			return errCorruptCapture(fmt.Sprintf("closed stream %d is %q arriving at %v, the run fed %q at %v",
				cs.K, cs.Lifecycle.Name, cs.Lifecycle.Arrival, lc.Name, lc.Arrival))
		}
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

	for i := 0; i < c.NumClosed(); i++ {
		cs := c.ClosedAt(i)
		k := cs.K
		f.res.Lifecycles[k] = cs.Lifecycle
		f.closed = append(f.closed, k)
		if cs.Lifecycle.Shed {
			continue
		}
		f.final[k] = true
		sr := &f.res.Streams[k]
		if cs.Err != "" {
			sr.Err = errors.New(cs.Err)
		} else {
			f.traces[k] = cs.Trace
			sr.Trace = &f.traces[k]
		}
		// The sink returns to its slab window with harvestSlot's copy
		// discipline (an empty histogram is nil, not zero-length).
		s := &f.stats[k]
		base := int(k) * f.maxLevels
		s.Init(f.hist[base : base : base+f.maxLevels])
		s.RestoreState(cs.Sink)
		if len(s.QualityHist) == 0 {
			s.QualityHist = nil
		}
		sr.Stats = s
	}
	for _, e := range c.Departures {
		depPush(&f.dep, depEvent{t: e.T, k: e.K})
	}
	if len(f.backlog) < len(c.Backlog) {
		f.backlog = make([]int32, len(c.Backlog)+openChunkMin)
	}
	copy(f.backlog, c.Backlog)
	f.blHead, f.blLen = 0, len(c.Backlog)
	for _, k := range c.Backlog {
		f.res.Lifecycles[k].Queued = true
	}
	for i := range c.Live {
		e := &c.Live[i]
		k := int(e.K)
		lc := &f.res.Lifecycles[k]
		lc.Admitted, lc.Queued = e.Admitted, e.Queued
		slot := f.arena.bind(&f.streams[k], k)
		if err := f.arena.err(slot); err != nil {
			return fmt.Errorf("fleet: restore: stream %d no longer binds: %w", k, err)
		}
		tbl, idx := f.arena.slotTbl[slot], f.arena.slotIdx[slot]
		tbl.states[idx] = e.State
		tbl.traces[idx] = e.Trace
		tbl.sinks[idx].RestoreState(e.Sink)
		depPush(&f.pend, depEvent{t: e.Admitted + f.minFin[k], k: int32(k)})
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
