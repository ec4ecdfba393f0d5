package fleet

import (
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
// slots in BatchCycles batches and hand each finished slot back to the
// frontier to retire. There is no global barrier anywhere: a burst of
// one stream costs no pool start/join, and a straggler never idles the
// pool.
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
//
// The hand-off back is one list of finished slots under mu: a worker
// appends its slot and signals comp, and the frontier swaps the list out
// and finishes the slots outside the lock. Admission decisions come
// from tables compiled before the run, so this is the only traffic
// between the goroutines beyond the slot status words.
type openSched struct {
	a       *openArena
	batch   int
	workers int
	met     *obs.FleetMetrics // optional observability (OpenConfig.Obs); nil = dark
	tr      *obs.Trace

	mu     sync.Mutex
	work   *sync.Cond // workers park here for the next injection
	comp   *sync.Cond // the frontier blocks here for completions
	quiet  *sync.Cond // quiesce waits here until every worker is parked
	resume *sync.Cond // paused workers park here until release
	gen    uint64     // bind generation; bumped under mu per injection batch
	parked int        // workers waiting on work or resume
	paused bool       // quiesce requested; workers park at the next boundary
	done   bool
	fin    []int32 // finished slots awaiting the frontier, under mu
	spare  []int32 // the list the frontier last drained; swapped in under mu

	// finished counts fin's entries. It changes only under mu; the
	// frontier's per-event poll reads it without the lock.
	//detlint:atomic
	finished atomic.Int32

	_ [cacheLine]byte // isolate the steal counter from the words above
	// steal staggers full steal sweeps across drained workers.
	//detlint:atomic
	steal atomic.Int64
	_     [cacheLine - 8]byte

	wg sync.WaitGroup
}

// newOpenSched spawns the persistent pool.
func newOpenSched(a *openArena, workers, batch int, met *obs.FleetMetrics, tr *obs.Trace) *openSched {
	s := &openSched{a: a, batch: batch, workers: workers, met: met, tr: tr}
	s.work = sync.NewCond(&s.mu)
	s.comp = sync.NewCond(&s.mu)
	s.quiet = sync.NewCond(&s.mu)
	s.resume = sync.NewCond(&s.mu)
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

// drain retires published completions, blocking until at least one
// arrives when block is set. The non-blocking pass skips the lock while
// the finished count reads zero. The blocking pass tests the list and
// waits under the same lock a publishing worker appends under, so a
// completion cannot slip in between the test and the wait.
func (s *openSched) drain(f *openFrontier, block bool) {
	if !block && s.finished.Load() == 0 {
		return
	}
	s.mu.Lock()
	for block && len(s.fin) == 0 {
		s.comp.Wait()
	}
	fin := s.fin
	s.fin, s.spare = s.spare[:0], fin
	s.finished.Store(0)
	s.mu.Unlock()
	for _, slot := range fin {
		f.finish(slot)
	}
}

// publish hands one finished slot to the frontier. It never blocks
// beyond the lock, so a publishing worker always reaches its next
// boundary — and a quiesce — promptly.
func (s *openSched) publish(slot int32) {
	s.mu.Lock()
	s.fin = append(s.fin, slot)
	s.finished.Add(1)
	s.comp.Signal()
	s.mu.Unlock()
}

// shutdown releases the pool. The frontier calls it once every
// departure has been retired, so no slot can still be ready or claimed
// — except on abort, where each worker finishes the batch it holds and
// exits, and nothing reads what it publishes.
func (s *openSched) shutdown() {
	s.mu.Lock()
	s.done = true
	s.work.Broadcast()
	s.resume.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// quiesce pauses the pool at a cycle-batch boundary: workers finish the
// batch they hold, publish its status, and park; quiesce returns once
// every worker is parked. From then until release, no slot is claimed
// and no slab is being written, so the frontier can read (or grow) every
// arena structure without a race — the checkpoint and population-growth
// hook. The frontier must still drain published completions itself: a
// worker may have completed a stream right before parking. Its publish
// took mu before its park did, so the post-quiesce drain sees it, and no
// slotDone slot survives that drain.
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
			s.publish(slot)
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
