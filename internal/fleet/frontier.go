package fleet

import (
	"math"

	"repro/internal/core"
	"repro/internal/multitask"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file is the engine: a deterministic virtual-time frontier that
// admits arrivals continuously while persistent workers drain the slot
// arena, with no global barrier anywhere. OpenLive (live.go) is its one
// driver: open runs, closed fleets (all arrivals at t = 0) and
// checkpointed runs load their population into an OpenLive, and
// incremental runs feed one.
//
// The engine rests on one load-bearing fact: a stream's trace — its
// service time Trace.Final included — is a pure function of its Runner.
// Arrival and admission instants never enter sim.Stream.Step, so
// execution does not have to be sequenced with admission at all; the
// frontier only needs each admitted stream's Final before it can retire
// the stream's departure. The serial spec (OpenRunStatsSerial) obtains
// the Final by running each admitted stream to completion on the spot.
// The frontier instead tracks, for every in-flight stream, a provable
// lower bound on its departure:
//
//	bound(k) = admitted(k) + (Cycles−1)·period        (streaming mode)
//
// which holds because a non-work-conserving stream idles each cycle to
// its arrival base, so its clock ends at or beyond the last cycle's
// base. (Work-conserving streams get the trivial bound 0 and degrade to
// lock-step.) The frontier processes the next event — the earlier of
// the next arrival and the earliest known departure — as long as every
// unresolved bound lies strictly beyond it; only when a bound fails to
// clear the event does it block for a completion. Admission decisions
// are therefore computed from exactly the information the serial loop
// had, in exactly the same order, while execution proceeds concurrently
// in the background — byte-identical traces, lifecycles and admission
// decisions at any (workers, batch), property-tested against the spec.

// depEvent is a (instant, stream) entry of the frontier's two binary
// heaps: exact departures, and departure lower bounds of in-flight
// streams. Ordering is (t, k) — the same index tie-break as the serial
// spec's container/heap form, hand-rolled so pushes never box into an
// interface and the steady state stays allocation-free.
type depEvent struct {
	t core.Time
	k int32
}

//detlint:hotpath
func depPush(h *[]depEvent, e depEvent) {
	//detlint:allow hotpathalloc growth amortized by the frontier-owned backing array
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].t < s[i].t || (s[p].t == s[i].t && s[p].k <= s[i].k) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

//detlint:hotpath
func depPop(h *[]depEvent) depEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && (s[l].t < s[m].t || (s[l].t == s[m].t && s[l].k < s[m].k)) {
			m = l
		}
		if r < n && (s[r].t < s[m].t || (s[r].t == s[m].t && s[r].k < s[m].k)) {
			m = r
		}
		if m == i {
			return top
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// lookahead is the frontier's publication window: the number of
// admitted-and-ready slots batched into one executor wake. It is wide
// enough that an admission burst wakes the pool once instead of per
// stream, and narrow enough that the first admitted stream of a burst is
// never starved behind the frontier's own event processing. Admission
// decisions are made in serial event order regardless, so results never
// depend on it.
const lookahead = 16

// openExec is the execution side of the continuous engine: the frontier
// calls start when a valid stream's slot is ready to run and drain to
// collect completions (blocking only when an unresolved departure bound
// gates the next event). quiesce halts execution at a cycle-batch
// boundary (release resumes it) — the window in which a checkpoint can
// read, or population growth reallocate, the arena's shared structures.
// Two implementations: inlineExec (workers = 1, no goroutines, no
// locks; always quiescent between drains) and openSched (persistent
// injection-aware workers, sched.go).
type openExec interface {
	start(n int)
	drain(f *openFrontier, block bool)
	quiesce()
	release()
	shutdown()
}

// openFrontier is the deterministic virtual-time event loop of the
// continuous engine. Its decision sequence is a pure function of the
// arrival instants and the per-stream service times, so it is shared
// verbatim by the single-threaded and concurrent executors; only
// wall-clock time depends on who runs the streams.
//
// The frontier owns its run's memory: the population (streams through
// final), the close order, both heaps, the backlog ring, the slot arena,
// the inline executor and the result with its per-stream cells.
// appendStream, finish and blPush grow what grows; newOpenLive builds a
// fresh frontier for every run, so nothing is shared across runs.
type openFrontier struct {
	// arena comes first, apart from the event loop's hot scalars below:
	// workers read its header words on every claim.
	arena openArena

	streams   []Stream
	n         int
	maxLevels int
	adm       Admitter

	arr    []core.Time
	order  []int32
	util   []float64
	minFin []core.Time
	final  []bool // service time resolved (lazy deletion mark for pend)
	// closed lists the streams in the order they closed: finished or
	// failed to bind (finish), or shed on arrival. It only grows, and a
	// closed stream's result cells are never written again, so a
	// capture views a prefix of it instead of copying what it names.
	closed []int32

	dep     []depEvent // exact departures, min-heap by (t, k)
	pend    []depEvent // departure lower bounds of in-flight streams
	backlog []int32    // FIFO ring
	blHead  int
	blLen   int

	inServe int
	cpuLoad float64
	lastT   core.Time
	lastDep core.Time
	ai      int   // arrival cursor into order
	events  int64 // processed event groups (checkpoint-boundary counter)
	look    int   // ready slots published per executor wake (lookahead; tests vary it)
	starts  int   // ready slots admitted since the last flushStarts

	inline inlineExec
	exec   openExec

	// res is the run's result: res.Streams and res.Lifecycles are the
	// per-stream result slabs, and a harvested stream's Trace and Stats
	// point into traces and stats, its histogram into hist (maxLevels
	// cells per stream).
	res    OpenResult
	traces []sim.Trace
	stats  []sim.StatsSink
	hist   []int

	// met and tr are the optional observability hooks (OpenConfig.Obs /
	// .Trace). Both are nil-tolerant: met gates each metric group behind
	// one branch, and obs instruments are individually nil-safe, so the
	// disabled path costs a single predictable-not-taken branch per
	// event group. Nothing below ever reads them back — observability on
	// ≡ off stays byte-identical by construction and is property-tested.
	met *obs.FleetMetrics
	tr  *obs.Trace
}

// attachExec selects the executor for a population of n streams: the
// inline one when the pool would have a single worker, the concurrent
// pool otherwise.
func (f *openFrontier) attachExec(n, workers, batch int) {
	if batch <= 0 {
		batch = DefaultBatchCycles
	}
	if workers = sim.EffectiveWorkers(n, workers); workers == 1 {
		f.inline = inlineExec{batch: batch, met: f.met}
		f.exec = &f.inline
	} else {
		f.exec = newOpenSched(&f.arena, workers, batch, f.met, f.tr)
	}
}

// streamWeight computes one stream's admission weight and departure
// lower bound, once per stream, as appendStream lays the stream out.
//
// Streams that will fail at bind weigh nothing (they depart the instant
// they are admitted) and carry no bound: their service time is exactly
// zero and known at admission. The condition is precisely bind's
// failure condition, sim.Runner.Validate. For bindable
// non-work-conserving streams, each cycle idles to its arrival base, so
// the final clock is at least the last cycle's base. A clamped product
// guards pathological Cycles × period overflow — the bound only ever
// errs conservative (0 = resolve before every later event).
func streamWeight(r *sim.Runner) (util float64, minFin core.Time) {
	if r.Validate() != nil {
		return 0, 0
	}
	if u := multitask.Utilization(r.Sys, r.Sys.QMin(), r.ResolvedPeriod()); !math.IsInf(u, 1) {
		util = u
	}
	if !r.WorkConserving {
		if mf := core.Time(r.Cycles-1) * r.ResolvedPeriod(); mf > 0 {
			minFin = mf
		}
	}
	return util, minFin
}

// validateOpen is the configuration gate shared by the engine (open
// and closed runs alike) and the serial spec.
func validateOpen(cfg *OpenConfig) error {
	n := len(cfg.Streams)
	if n == 0 {
		return errNoStreams
	}
	if len(cfg.Arrivals) != n {
		return arrivalCountError(n, len(cfg.Arrivals))
	}
	for k, t := range cfg.Arrivals {
		if t < 0 || t.IsInf() {
			return arrivalInstantError(k, t)
		}
	}
	return nil
}

// step processes the next event group — all simultaneous departures, or
// all simultaneous arrivals, at one instant — provided it lies at or
// before the watermark, and reports whether it processed one. The
// ordering contract is the serial spec's, verbatim: at one instant,
// departures retire first (then the freed capacity is offered to the
// FIFO backlog), and only then are new arrivals decided; ties among
// simultaneous events break by stream index. The single addition over
// the spec's loop is the bound gate — an event is processed only when
// every in-flight stream's departure bound clears it strictly, so the
// decision state (in-service count, CPU load, backlog) is provably
// identical to the spec's at every decision.
//
// A finite watermark is the incremental form (OpenLive): only events at
// instants ≤ the watermark may be processed, because a later Feed could
// still deliver an arrival before anything beyond it. A step that
// returns false has nothing (left) to do at this watermark; with an
// infinite watermark that means the run has drained. Each processed
// group advances the events counter — the engine's checkpoint-boundary
// clock.
func (f *openFrontier) step(watermark core.Time) bool {
	for {
		f.exec.drain(f, false)
		tA, tD := core.TimeInf, core.TimeInf
		if f.ai < f.n {
			tA = f.arr[f.order[f.ai]]
		}
		if len(f.dep) > 0 {
			tD = f.dep[0].t
		}
		t := tA
		if tD < t {
			t = tD
		}
		if b, ok := f.pendMin(); ok && b <= t && b <= watermark {
			// An in-flight stream could depart at or before the next
			// known event (and within the watermark): its exact service
			// time gates the decision. Flush any batched publications
			// first — the completion the gate waits for may be a stream
			// the executor was never woken for — then block and
			// re-evaluate.
			f.flushStarts()
			if m := f.met; m != nil {
				m.BlockingDrains.Inc()
			}
			f.exec.drain(f, true)
			continue
		}
		if t > watermark || t >= core.TimeInf {
			// Nothing (left) to process at this watermark: every known
			// event and every in-flight departure bound lies beyond it —
			// or, at an infinite watermark, the run has drained. Hand any
			// batched publications to the executor before yielding
			// control: the caller may go idle (OpenLive between feeds)
			// and the workers must not sit parked over ready slots.
			f.flushStarts()
			return false
		}
		if tD <= tA {
			f.advanceTo(tD)
			for len(f.dep) > 0 && f.dep[0].t == tD {
				e := depPop(&f.dep)
				f.inServe--
				f.cpuLoad -= f.util[e.k]
				if m := f.met; m != nil {
					m.Departures.Inc()
				}
			}
			// Offer the freed capacity to the backlog in FIFO order; a
			// Shed verdict for the head is treated as Delay (shedding is
			// an arrival-time decision).
			for f.blLen > 0 {
				k := f.backlog[f.blHead]
				if f.adm.Decide(Load{T: tD, InService: f.inServe, Backlog: 0, CPULoad: f.cpuLoad}, f.util[k]) != Admit {
					break
				}
				f.blHead++
				if f.blHead == len(f.backlog) {
					f.blHead = 0
				}
				f.blLen--
				if m := f.met; m != nil {
					m.Backlog.Set(int64(f.blLen))
				}
				f.admit(k, tD)
			}
			f.events++
			if m := f.met; m != nil {
				m.Events.Inc()
			}
			return true
		}
		f.advanceTo(tA)
		for f.ai < f.n && f.arr[f.order[f.ai]] == tA {
			k := f.order[f.ai]
			f.ai++
			f.tr.Rec(obs.EvArrive, tA, k, obs.NoWorker, 0)
			v := f.adm.Decide(Load{T: tA, InService: f.inServe, Backlog: f.blLen, CPULoad: f.cpuLoad}, f.util[k])
			if m := f.met; m != nil {
				m.Arrivals.Inc()
			}
			switch v {
			case Admit:
				f.admit(k, tA)
			case Delay:
				f.blPush(k)
				f.res.Lifecycles[k].Queued = true
				if f.blLen > f.res.MaxBacklog {
					f.res.MaxBacklog = f.blLen
				}
				if m := f.met; m != nil {
					m.Delayed.Inc()
					m.Backlog.Set(int64(f.blLen))
					m.BacklogMax.SetMax(int64(f.blLen))
				}
				f.tr.Rec(obs.EvDelay, tA, k, obs.NoWorker, int64(f.blLen))
			default:
				f.res.Lifecycles[k].Shed = true
				f.closed = append(f.closed, k)
				if m := f.met; m != nil {
					m.Shed.Inc()
				}
				f.tr.Rec(obs.EvShed, tA, k, obs.NoWorker, 0)
			}
		}
		f.events++
		if m := f.met; m != nil {
			m.Events.Inc()
		}
		return true
	}
}

// finishRun seals a drained run: terminal backlog shedding, fate counts
// and the observation-window bounds.
func (f *openFrontier) finishRun() {
	// Streams still queued when the system drained can never be admitted
	// — no departure will ever free more capacity — so they are shed at
	// the end of the run, exactly as in the spec.
	for ; f.blLen > 0; f.blLen-- {
		k := f.backlog[f.blHead]
		f.res.Lifecycles[k].Shed = true
		if m := f.met; m != nil {
			m.Shed.Inc()
		}
		f.tr.Rec(obs.EvShed, f.lastT, k, obs.NoWorker, 0)
		f.blHead++
		if f.blHead == len(f.backlog) {
			f.blHead = 0
		}
	}
	if m := f.met; m != nil {
		m.Backlog.Set(0)
	}
	for _, lc := range f.res.Lifecycles {
		if lc.Shed {
			f.res.Shed++
		} else {
			f.res.Admitted++
		}
		if lc.Queued {
			f.res.Delayed++
		}
	}
	f.res.End = f.lastT
	f.res.Final = f.lastDep
}

// pendMin returns the smallest unresolved departure bound, discarding
// entries whose stream has since resolved (lazy deletion keeps the heap
// free of random-access removals).
func (f *openFrontier) pendMin() (core.Time, bool) {
	for len(f.pend) > 0 && f.final[f.pend[0].k] {
		depPop(&f.pend)
	}
	if len(f.pend) == 0 {
		return 0, false
	}
	return f.pend[0].t, true
}

// advanceTo integrates the backlog depth over simulated time up to the
// next event instant — the identical accumulation order as the spec, so
// the float integral matches bit for bit.
func (f *openFrontier) advanceTo(t core.Time) {
	if t > f.lastT {
		f.res.BacklogIntegral += float64(t-f.lastT) * float64(f.blLen)
		f.lastT = t
		if m := f.met; m != nil {
			m.BacklogIntegral.Set(f.res.BacklogIntegral)
		}
	}
}

// admit enters stream k into service at instant t: admission
// bookkeeping, slot binding, and either immediate harvest (bind-time
// failures have service time exactly zero) or hand-off to the executor
// with the stream's departure bound registered.
func (f *openFrontier) admit(k int32, t core.Time) {
	f.res.Lifecycles[k].Admitted = t
	f.inServe++
	f.cpuLoad += f.util[k]
	if m := f.met; m != nil {
		m.Admitted.Inc()
	}
	f.tr.Rec(obs.EvAdmit, t, k, obs.NoWorker, int64(f.inServe))
	slot := f.arena.bind(&f.streams[k], int(k))
	f.tr.Rec(obs.EvBind, t, k, obs.NoWorker, int64(slot))
	if f.arena.err(slot) != nil {
		// The stream occupies no simulated time: its departure is t
		// itself, known without execution.
		f.finish(slot)
		return
	}
	depPush(&f.pend, depEvent{t: t + f.minFin[k], k: k})
	// The store publishes the bound slot: any worker already awake can
	// claim it immediately (claim sweeps the arena, not a queue). The
	// executor wake is batched through the lookahead window — admission
	// decisions stay in exact serial event order, only the lock/signal
	// that wakes parked workers is amortized over up to look slots.
	f.arena.status[slot].v.Store(slotReady)
	f.starts++
	if f.starts >= f.look {
		f.flushStarts()
	}
}

// flushStarts hands the batched ready-slot publications to the
// executor. Called when the lookahead window fills, and at every point
// the frontier stops producing — before a blocking drain (the workers
// it waits on may be parked) and before step yields to its caller.
func (f *openFrontier) flushStarts() {
	if f.starts > 0 {
		if m := f.met; m != nil {
			m.FlushSize.Observe(int64(f.starts))
		}
		f.exec.start(f.starts)
		f.starts = 0
	}
}

// finish harvests a completed (or bind-failed) slot: the result is
// copied into the per-stream slabs, the exact departure enters the
// event heap, and the slot recycles. Called by the frontier only — in
// the concurrent engine the workers publish completions and the
// frontier finishes them inside drain, so all result slabs stay
// single-writer.
func (f *openFrontier) finish(slot int32) {
	a := &f.arena
	k := a.slotStream[slot]
	sr := &f.res.Streams[k]
	base := int(k) * f.maxLevels
	a.slotTbl[slot].harvestSlot(int(a.slotIdx[slot]), sr, &f.traces[k], &f.stats[k], f.hist[base:base+f.maxLevels])
	a.release(slot)
	lc := &f.res.Lifecycles[k]
	d := lc.Admitted
	if sr.Err == nil {
		d += sr.Trace.Final
	} else {
		lc.Failed = true
	}
	lc.Departed = d
	if d > f.lastDep {
		f.lastDep = d
	}
	depPush(&f.dep, depEvent{t: d, k: k})
	f.final[k] = true
	f.closed = append(f.closed, k)
	f.tr.Rec(obs.EvComplete, d, k, obs.NoWorker, int64(slot))
}

// blPush appends to the FIFO backlog ring, growing it amortized.
func (f *openFrontier) blPush(k int32) {
	if f.blLen == len(f.backlog) {
		grown := make([]int32, 2*f.blLen+openChunkMin)
		for i := 0; i < f.blLen; i++ {
			grown[i] = f.backlog[(f.blHead+i)%len(f.backlog)]
		}
		f.backlog, f.blHead = grown, 0
	}
	f.backlog[(f.blHead+f.blLen)%len(f.backlog)] = k
	f.blLen++
}

// inlineExec is the workers = 1 executor: no goroutines, no locks, no
// status traffic beyond the arena's own words. Execution happens only
// inside blocking drains — the frontier runs every admission decision
// it can prove first, then sweeps the ready slots in batch rounds until
// a completion resolves the gate. This is also the engine's in-order
// reference shape: a run at workers = 1 exercises the same frontier as
// the concurrent pool with fully deterministic execution interleaving.
type inlineExec struct {
	batch int
	met   *obs.FleetMetrics
}

// start is a no-op: there is no pool to wake, and the frontier already
// marked the slots ready for the drain sweep.
func (e *inlineExec) start(n int) {}

func (e *inlineExec) drain(f *openFrontier, block bool) {
	if !block {
		return
	}
	a := &f.arena
	for {
		finished, live := false, false
		n := int(a.allocated.Load())
		for slot := 0; slot < n; slot++ {
			if a.status[slot].v.Load() != slotReady {
				continue
			}
			live = true
			tbl, idx := a.slotTbl[slot], a.slotIdx[slot]
			if m := e.met; m != nil {
				m.Batches.Inc()
			}
			if advance(&tbl.streams[idx], e.batch) {
				f.finish(int32(slot))
				finished = true
			}
		}
		if finished {
			return
		}
		if !live {
			panic("fleet: open frontier blocked with no runnable stream")
		}
	}
}

// quiesce and release are no-ops: with no pool, execution only ever
// happens inside a blocking drain, so the arena is quiescent whenever
// the frontier is in control.
func (e *inlineExec) quiesce() {}
func (e *inlineExec) release() {}

func (e *inlineExec) shutdown() {}
