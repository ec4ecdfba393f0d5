package fleet

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sim"
)

// DefaultBatchCycles is the number of cycles a worker advances one
// stream before moving to the next in its range. 32 cycles of the
// paper's encoder is ≈38k actions — long enough to amortise the switch
// and keep the manager's tables hot, short enough that range sweeps
// revisit every stream's struct-of-arrays state while it is still in
// cache and that stolen streams migrate at a useful granularity.
const DefaultBatchCycles = 32

// advance runs one batch of cycles on st and reports whether the stream
// has completed.
func advance(st *sim.Stream, batch int) bool {
	for c := 0; c < batch; c++ {
		if !st.Step() {
			return true
		}
	}
	return st.Done()
}

// openSched is the engine's multi-worker executor — for open runs and
// closed fleets alike: a pool of persistent, injection-aware workers
// over the slot arena. Workers outlive every stream: the frontier binds
// arrivals into recycled slots and publishes them ready *while workers
// run*, and workers harvest nothing themselves — they advance claimed
// slots in BatchCycles batches and publish completions for the frontier
// to retire. There is no global barrier anywhere: a burst of one stream
// costs no pool start/join, and a straggler never idles the pool.
//
// Work discovery is shard-affine: worker w first sweeps its own
// contiguous range [w·n/W, (w+1)·n/W) of the n published slots, and only
// when that range is dry touches the shared steal counter to stagger a
// full scan over every published slot. Contiguous ranges keep two
// workers off neighbouring slots, whose traces, sinks and histogram
// cells share cache lines and are written on every action. A worker
// that finds nothing claimable parks on the bind generation and is
// woken by the next injection (or shutdown), so an idle pool burns no
// CPU.
type openSched struct {
	a       *openArena
	sc      *OpenScratch
	batch   int
	workers int
	met     *obs.FleetMetrics // optional observability (OpenConfig.Obs); nil = dark
	tr      *obs.Trace

	mu     sync.Mutex
	work   *sync.Cond // workers park here for the next injection
	comp   *sync.Cond // the frontier blocks here for completions
	quiet  *sync.Cond // quiesce waits here until every worker is parked
	resume *sync.Cond // paused workers park here until release
	space  *sync.Cond // overflow-parked workers wait for the frontier here
	over   []int32    // per-worker overflow cell (-1 = none), under mu
	gen    uint64     // bind generation; bumped under mu per injection batch
	parked int        // workers waiting on work, resume, or space
	paused bool       // quiesce requested; workers park at the next boundary
	done   bool

	rings   []completionRing // per-worker SPSC completion rings
	overBuf []int32          // frontier-only staging for overflow slots

	_ [cacheLine]byte // isolate the cross-thread hot words below
	// steal staggers full steal sweeps across drained workers.
	//detlint:atomic
	steal atomic.Int64
	_     [cacheLine - 8]byte
	// compWait is the Dekker flag for the frontier's blocking drain: the
	// frontier raises it under mu, then checks the ring cursors and the
	// overflow count under mu before every comp.Wait; every worker loads
	// it after publishing. Both sides are seq-cst store-then-load pairs
	// over (ring tail, compWait), so either the frontier's check sees the
	// completion or the worker sees the flag — and the worker's signal
	// takes mu, which the frontier holds from its check until Wait
	// releases it, so that signal cannot fall between the two. The
	// emptiness check must stay under mu: a check made with mu released
	// lets a push and its signal both land before the wait, and the
	// wakeup is lost.
	//detlint:atomic
	compWait atomic.Int32
	_        [cacheLine - 4]byte
	// overflow counts workers parked with a completion in their over
	// cell; the frontier polls it per harvest without taking the lock.
	//detlint:atomic
	overflow atomic.Int32
	_        [cacheLine - 4]byte

	wg sync.WaitGroup
}

// openRingCap is the per-worker completion ring capacity (a power of
// two). It is a variable only so tests can shrink it to force the
// wrap-around and overflow-park paths; nothing mutates it concurrently
// with a run.
var openRingCap = 64

// ringSpin bounds how long a worker yields on a full ring before
// parking: long enough to ride out a frontier that is mid-harvest,
// short enough that quiesce is never held hostage by a spinner.
const ringSpin = 128

// completionRing is a single-producer/single-consumer ring of finished
// slots: the owning worker pushes, the frontier pops. head and tail sit
// on separate cache lines so the producer's stores never invalidate the
// consumer's hot line (or vice versa). Both cursors are seq-cst
// atomics, which carries the classic SPSC argument: the producer writes
// buf[t] only after observing head > t−cap, the consumer reads buf[h]
// only after observing tail > h, and each side advances only its own
// cursor — so every buf access is ordered by a cursor publication.
type completionRing struct {
	// head is the consumer cursor; only the frontier advances it.
	//detlint:atomic
	head atomic.Int64
	_    [cacheLine - 8]byte
	// tail is the producer cursor; only the owning worker advances it.
	//detlint:atomic
	tail atomic.Int64
	_    [cacheLine - 8]byte
	buf  []int32 // power-of-two length; indexed by cursor & (len-1)
}

// reset prepares the ring for a new run, reallocating the buffer only
// when the capacity changed since the scratch last held it.
func (r *completionRing) reset(capacity int) {
	if len(r.buf) != capacity {
		r.buf = make([]int32, capacity)
	}
	r.head.Store(0)
	r.tail.Store(0)
}

// push publishes one finished slot, reporting false when the ring is
// full — the producer falls back to publishSlow rather than block here.
//
//detlint:hotpath
func (r *completionRing) push(slot int32) bool {
	t := r.tail.Load()
	if t-r.head.Load() >= int64(len(r.buf)) {
		return false
	}
	r.buf[int(t)&(len(r.buf)-1)] = slot
	r.tail.Store(t + 1)
	return true
}

// pop takes the oldest published slot, if any.
//
//detlint:hotpath
func (r *completionRing) pop() (int32, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return 0, false
	}
	slot := r.buf[int(h)&(len(r.buf)-1)]
	r.head.Store(h + 1)
	return slot, true
}

// newOpenSched spawns the persistent pool. The rings and overflow cells
// live in the scratch so a warm steady state publishes without
// allocating; cursors are reset here because an aborted run can leave
// completions behind.
func newOpenSched(a *openArena, workers, batch int, sc *OpenScratch, met *obs.FleetMetrics, tr *obs.Trace) *openSched {
	s := &openSched{a: a, sc: sc, batch: batch, workers: workers, met: met, tr: tr}
	s.work = sync.NewCond(&s.mu)
	s.comp = sync.NewCond(&s.mu)
	s.quiet = sync.NewCond(&s.mu)
	s.resume = sync.NewCond(&s.mu)
	s.space = sync.NewCond(&s.mu)
	if len(sc.rings) < workers {
		sc.rings = make([]completionRing, workers)
	}
	if cap(sc.over) < workers {
		sc.over = make([]int32, workers)
		sc.overBuf = make([]int32, 0, workers)
	}
	s.rings = sc.rings[:workers]
	for w := range s.rings {
		s.rings[w].reset(openRingCap)
	}
	s.over = sc.over[:workers]
	for w := range s.over {
		s.over[w] = -1
	}
	s.overBuf = sc.overBuf[:0]
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer s.wg.Done()
			s.runOpen(w)
		}(w)
	}
	return s
}

// start wakes the pool after the frontier published n ready slots. The
// lookahead window batches publications, so one lock/generation bump
// covers a whole admission burst; waking min(n, workers) parked workers
// keeps a single-slot publish exactly as cheap as before.
func (s *openSched) start(n int) {
	s.mu.Lock()
	s.gen++
	if n >= s.workers {
		s.work.Broadcast()
	} else {
		for i := 0; i < n; i++ {
			s.work.Signal()
		}
	}
	s.mu.Unlock()
}

// harvest retires every published completion — the per-worker rings
// round-robin, then any overflow-parked slots — and reports whether it
// found one. Ring traffic is entirely lock-free; the mutex is touched
// only when some worker overflowed its ring and parked.
func (s *openSched) harvest(f *openFrontier) bool {
	got := false
	for w := range s.rings {
		r := &s.rings[w]
		for {
			slot, ok := r.pop()
			if !ok {
				break
			}
			f.finish(slot)
			got = true
		}
	}
	if s.overflow.Load() != 0 && s.takeOverflow(f) {
		got = true
	}
	return got
}

// takeOverflow consumes the overflow cell of every worker parked on a
// full ring and wakes them. Slots are collected under the lock but
// retired outside it, so the parked workers resume while the frontier
// is still finishing their streams.
func (s *openSched) takeOverflow(f *openFrontier) bool {
	s.mu.Lock()
	buf := s.overBuf[:0]
	for w := range s.over {
		if s.over[w] >= 0 {
			buf = append(buf, s.over[w])
			s.over[w] = -1
		}
	}
	if len(buf) > 0 {
		s.overflow.Add(int32(-len(buf)))
		s.space.Broadcast()
	}
	s.mu.Unlock()
	s.overBuf = buf[:0]
	for _, slot := range buf {
		f.finish(slot)
	}
	return len(buf) > 0
}

// drain retires published completions, blocking until at least one
// arrives when block is set. The non-blocking pass never takes the
// mutex unless a ring overflowed; the blocking pass raises compWait and
// tests for a publication under mu before every wait (see compWait).
func (s *openSched) drain(f *openFrontier, block bool) {
	for !s.harvest(f) && block {
		s.mu.Lock()
		s.compWait.Store(1)
		for !s.published() {
			s.comp.Wait()
		}
		s.compWait.Store(0)
		s.mu.Unlock()
	}
}

// published reports whether a completion awaits harvest: a ring with an
// unconsumed entry, or an overflow-parked worker.
func (s *openSched) published() bool {
	for w := range s.rings {
		if r := &s.rings[w]; r.tail.Load() != r.head.Load() {
			return true
		}
	}
	return s.overflow.Load() != 0
}

// publish hands one finished slot to the frontier. The fast path is a
// single SPSC push with no lock; the compWait check afterwards wakes a
// frontier that went to sleep concurrently (see compWait).
func (s *openSched) publish(w int, slot int32) {
	r := &s.rings[w]
	if !r.push(slot) {
		s.publishSlow(w, slot)
	}
	if s.met != nil {
		// Approximate occupancy: both cursors may move between the two
		// loads, but the high-water is a shape-dependent signal, not an
		// invariant.
		s.met.RingHighWater.SetMax(r.tail.Load() - r.head.Load())
	}
	if s.compWait.Load() != 0 {
		s.mu.Lock()
		s.comp.Signal()
		s.mu.Unlock()
	}
}

// publishSlow handles a full ring: yield-spin briefly (the frontier may
// be mid-harvest), then park with the slot in the worker's overflow
// cell until the frontier consumes it. Publication never waits on the
// frontier while holding anything the frontier needs, and the park
// counts toward quiesce — so a checkpoint reaches quiescence even with
// every ring full and drains the backlog afterwards.
func (s *openSched) publishSlow(w int, slot int32) {
	r := &s.rings[w]
	for i := 0; i < ringSpin; i++ {
		runtime.Gosched()
		if r.push(slot) {
			return
		}
	}
	s.mu.Lock()
	if !r.push(slot) {
		if s.met != nil {
			s.met.OverflowParks.Inc()
		}
		s.over[w] = slot
		s.overflow.Add(1)
		s.parked++
		if s.parked == s.workers {
			s.quiet.Signal()
		}
		if s.compWait.Load() != 0 {
			s.comp.Signal()
		}
		for s.over[w] >= 0 && !s.done {
			s.space.Wait()
		}
		s.parked--
	}
	s.mu.Unlock()
}

// shutdown releases the pool. The frontier calls it once every
// departure has been retired, so no slot can still be ready or claimed
// — except on abort, where a worker may still be parked on a full ring;
// the space broadcast lets it abandon the slot and exit.
func (s *openSched) shutdown() {
	s.mu.Lock()
	s.done = true
	s.work.Broadcast()
	s.resume.Broadcast()
	s.space.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// quiesce pauses the pool at a cycle-batch boundary: workers finish the
// batch they hold, publish its status, and park; quiesce returns once
// every worker is parked. From then until release, no slot is claimed
// and no slab is being written, so the frontier can read (or grow) every
// arena structure without a race — the checkpoint and population-growth
// hook. The frontier must still drain published completions itself: a
// worker may have completed a stream right before parking, and a worker
// parked on a full ring counts as parked with its slot still in the
// overflow cell — drain consumes both, so no slotDone slot survives a
// post-quiesce drain.
func (s *openSched) quiesce() {
	s.mu.Lock()
	s.paused = true
	s.work.Broadcast() // idle workers must migrate to the pause lobby
	for s.parked < s.workers {
		s.quiet.Wait()
	}
	s.mu.Unlock()
}

// release ends a quiesce and lets the pool run again.
func (s *openSched) release() {
	s.mu.Lock()
	s.paused = false
	s.resume.Broadcast()
	s.mu.Unlock()
}

// runOpen is one persistent worker: claim → advance a batch → publish
// or release, parking on the bind generation when nothing is claimable.
// Sampling the generation before the scan closes the classic missed-
// wakeup race — any injection after the sample bumps it, so the park
// loop falls through immediately. A pause request is honoured at the
// top of every iteration — between batches, never inside one — so a
// quiesced arena only ever exposes slot states at batch boundaries.
func (s *openSched) runOpen(w int) {
	for {
		s.mu.Lock()
		for s.paused && !s.done {
			s.parked++
			if s.parked == s.workers {
				s.quiet.Signal()
			}
			s.resume.Wait()
			s.parked--
		}
		gen, done := s.gen, s.done
		s.mu.Unlock()
		if done {
			return
		}
		slot, ok := s.claim(w)
		if !ok {
			s.mu.Lock()
			if !s.done && s.gen == gen && !s.paused {
				// About to park (not merely racing a wake): one
				// transition, however many spurious wakeups follow.
				if s.met != nil {
					s.met.Parks.Inc()
				}
				s.tr.Rec(obs.EvPark, obs.NoTime, obs.NoStream, int32(w), int64(gen))
			}
			for !s.done && s.gen == gen && !s.paused {
				s.parked++
				if s.parked == s.workers {
					s.quiet.Signal()
				}
				s.work.Wait()
				s.parked--
			}
			done = s.done
			s.mu.Unlock()
			if done {
				return
			}
			continue
		}
		tbl, idx := s.a.slotTbl[slot], s.a.slotIdx[slot]
		if s.met != nil {
			s.met.Batches.Inc()
		}
		if advance(&tbl.streams[idx], s.batch) {
			s.a.status[slot].v.Store(slotDone)
			s.publish(w, slot)
		} else {
			s.a.status[slot].v.Store(slotReady)
		}
	}
}

// claim finds a ready slot: the worker's own contiguous range first,
// then a full steal sweep staggered by the shared counter. The
// load-before-CAS keeps idle passes read-only on every status cache
// line.
//
//detlint:hotpath
func (s *openSched) claim(w int) (int32, bool) {
	n := int(s.a.allocated.Load())
	for i, hi := w*n/s.workers, (w+1)*n/s.workers; i < hi; i++ {
		if s.a.status[i].v.Load() == slotReady && s.a.status[i].v.CompareAndSwap(slotReady, slotClaimed) {
			return int32(i), true
		}
	}
	if n == 0 {
		return 0, false
	}
	start := int(s.steal.Add(1)-1) % n
	for j := 0; j < n; j++ {
		i := start + j
		if i >= n {
			i -= n
		}
		if s.a.status[i].v.Load() == slotReady && s.a.status[i].v.CompareAndSwap(slotReady, slotClaimed) {
			if s.met != nil {
				s.met.Steals.Inc()
			}
			s.tr.Rec(obs.EvSteal, obs.NoTime, s.a.slotStream[i], int32(w), int64(i))
			return int32(i), true
		}
	}
	return 0, false
}
