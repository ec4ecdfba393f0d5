package fleet

import (
	"sync/atomic"

	"repro/internal/sim"
)

// streamChunk is one fixed-size block of the slot arena's
// struct-of-arrays stream store: the mutable per-slot simulation state
// — clocks and cycle counters (sim.State), trace aggregates
// (sim.Trace), and the StatsSink accumulators and their histograms —
// lives in contiguous slabs, one entry per slot, instead of
// individually heap-allocated objects. A worker sweeping its range of
// slots therefore walks arrays in index order and stays in cache;
// the sim.Stream views are exactly the serial runner's streams, pointed
// at the slabs, so the layout changes memory behaviour, never results.
type streamChunk struct {
	names   []string
	runners []sim.Runner    // per-slot runner configs (copies; sinks rewritten)
	streams []sim.Stream    // views over the slabs below; invalid where errs[i] != nil
	states  []sim.State     // hot scalars: clock + cycle counter
	traces  []sim.Trace     // scalar aggregates
	sinks   []sim.StatsSink // each slot's own sink
	hist    []int           // backing slab of the sink histograms, maxLevels cells per slot
	errs    []error         // per-slot configuration errors

	maxLevels int // uniform per-slot histogram window width
}

// bindSlot initialises slot i for the stream: the slot's StatsSink gets
// its histogram window of the shared slab and replaces any caller-set
// sink, teed with the export sink when one is given (keyed by the
// stream's index k in the population). Configuration errors are
// recorded in the slot, not returned — the stream still occupies it
// until harvested, so one bad stream cannot derail the run. The slot
// must not be bound or mid-execution. It never allocates without an
// export sink, which is what keeps the engine's steady state
// allocation-free.
func (c *streamChunk) bindSlot(i int, s *Stream, k int, export func(k int, name string) sim.Sink) {
	c.names[i] = s.Name
	c.runners[i] = s.Runner
	r := &c.runners[i]
	base := i * c.maxLevels
	c.sinks[i].Init(c.hist[base : base : base+c.maxLevels])
	r.Sink = &c.sinks[i]
	if export != nil {
		if extra := export(k, s.Name); extra != nil {
			r.Sink = sim.TeeSink{&c.sinks[i], extra}
		}
	}
	c.errs[i] = r.InitStream(&c.streams[i], &c.states[i], &c.traces[i])
}

// harvestSlot copies slot i's outcome into caller-owned result cells —
// trOut for the scalar trace, sinkOut for the sink and a histogram
// window histOut of at least the chunk's level width — so the result
// aliases nothing in the slabs and the harvest allocates nothing. An
// empty histogram reads as nil. Free-slot bookkeeping is the arena's.
func (c *streamChunk) harvestSlot(i int, sr *StreamResult, trOut *sim.Trace, sinkOut *sim.StatsSink, histOut []int) {
	sr.Name = c.names[i]
	sr.Err = c.errs[i]
	*sinkOut = c.sinks[i]
	if h := sinkOut.QualityHist; len(h) == 0 {
		sinkOut.QualityHist = nil
	} else {
		w := histOut[:len(h)]
		copy(w, h)
		sinkOut.QualityHist = w
	}
	sr.Stats = sinkOut
	if sr.Err == nil {
		*trOut = c.traces[i]
		sr.Trace = trOut
	}
	c.errs[i] = nil
}

// Per-slot scheduler states of the arena. The frontier moves a slot
// empty → ready at bind and done → empty at harvest; workers move it
// ready → claimed → ready once per batch and store done when the
// stream completes. Every transition goes through the slot's atomic
// status word, so slab publication between the frontier and the workers
// is always a synchronised hand-off.
const (
	slotEmpty int32 = iota
	slotReady
	slotClaimed
	slotDone
)

// cacheLine is the padding unit for the engine's worker-shared hot
// words. 64 bytes covers every amd64/arm64 part the engine targets;
// on parts with 128-byte prefetch pairs the residual sharing is
// between neighbours only.
const cacheLine = 64

// slotWord is one slot's scheduler status on its own cache line. Every
// worker reads the whole status array — its own contiguous range on
// each claim, all of it on a steal sweep — and the frontier stores
// ready and empty into it, so with packed words sixteen slots' CAS and
// store traffic would share each 64-byte line and the two workers
// owning the ends of neighbouring ranges would ping-pong it across
// cores. One word per line trades 60 bytes of padding per slot (slot
// count is peak concurrency, not population) for contention-free
// sweeps.
type slotWord struct {
	// v is the slot's lifecycle word, shared between the frontier and
	// the workers.
	//detlint:atomic
	v atomic.Int32
	_ [cacheLine - 4]byte
}

// openArena is the engine's slot store: a set of fixed-size
// streamChunk slabs plus flat slot-indirection arrays. Streams are
// always mid-flight, so the arena never reallocates a slab: growth
// appends a fresh chunk, and the views of bound slots stay valid with
// no quiesce barrier. The heavy
// per-slot slabs (runners, states, traces, sinks, histograms) therefore
// still track peak concurrency, not the population; only the flat
// indirection arrays (a pointer and a few words per slot) are
// pre-sized to the population bound so workers can scan them without
// ever racing a reallocation.
//
// Ownership: chunks, free and the slot arrays beyond the published
// allocated count are the frontier's alone. Workers read slotTbl /
// slotIdx / slotStream only for slots below allocated (published with
// an atomic add) whose status they hold claimed, so every slab access
// is ordered by the status word or the allocated counter.
type openArena struct {
	export    func(k int, name string) sim.Sink
	maxLevels int

	chunks     []*streamChunk
	slotTbl    []*streamChunk // slot → chunk
	slotIdx    []int32        // slot → index within its chunk
	slotStream []int32        // slot → bound stream index (frontier writes before the ready store)
	// status holds one cache-line-padded lifecycle word per slot
	// (slotWord); the atomic discipline binds to slotWord.v.
	status []slotWord
	// allocated is the published slot count; workers scan [0, allocated).
	//detlint:atomic
	allocated atomic.Int32
	free      []int32 // recycled-slot stack (frontier only)
}

// openChunkMin is the first chunk's slot count; later chunks double the
// arena, so reaching a peak concurrency of C costs O(log C) chunk
// allocations over the whole run.
const openChunkMin = 8

// ensurePopulation grows the flat indirection arrays to hold at least n
// slots, doubling to amortize. Workers scan these arrays (and the
// status words) up to the published allocated count, so reallocation is
// legal only while the executor is quiescent: newOpenLive sizes them for
// a loaded population before any slot exists, and the live driver calls
// this under quiesce when its fed population outgrows them. The atomic
// status words are migrated value by value (an atomic.Int32 must never
// be copied as a struct); slots below allocated keep their published
// state, and the free stack needs no migration because only the
// frontier touches it.
func (a *openArena) ensurePopulation(n int) {
	if n <= len(a.slotTbl) {
		return
	}
	c := 2 * len(a.slotTbl)
	if c < n {
		c = n
	}
	if c < openChunkMin {
		c = openChunkMin
	}
	slotTbl := make([]*streamChunk, c)
	slotIdx := make([]int32, c)
	slotStream := make([]int32, c)
	status := make([]slotWord, c)
	copy(slotTbl, a.slotTbl)
	copy(slotIdx, a.slotIdx)
	copy(slotStream, a.slotStream)
	for i := range a.status {
		status[i].v.Store(a.status[i].v.Load())
	}
	a.slotTbl, a.slotIdx, a.slotStream, a.status = slotTbl, slotIdx, slotStream, status
}

// register wires one chunk slot into the flat arrays and the free stack.
// Slots above the published allocated count are invisible to workers
// until the counter advances.
func (a *openArena) register(slot int, c *streamChunk, i int) {
	a.slotTbl[slot] = c
	a.slotIdx[slot] = int32(i)
	a.slotStream[slot] = -1
	a.status[slot].v.Store(slotEmpty)
	a.free = append(a.free, int32(slot))
}

// grow appends a doubling chunk and publishes its slots. Called by the
// frontier only when the free stack is empty; the population bound
// guarantees the indirection arrays have room (at most one slot per
// stream is ever bound).
func (a *openArena) grow() {
	total := int(a.allocated.Load())
	size := total
	if size < openChunkMin {
		size = openChunkMin
	}
	if rem := len(a.slotTbl) - total; size > rem {
		size = rem
	}
	if size <= 0 {
		panic("fleet: open arena over population capacity")
	}
	c := &streamChunk{
		names:     make([]string, size),
		runners:   make([]sim.Runner, size),
		streams:   make([]sim.Stream, size),
		states:    make([]sim.State, size),
		traces:    make([]sim.Trace, size),
		sinks:     make([]sim.StatsSink, size),
		hist:      make([]int, size*a.maxLevels),
		errs:      make([]error, size),
		maxLevels: a.maxLevels,
	}
	a.chunks = append(a.chunks, c)
	for i := 0; i < size; i++ {
		a.register(total+i, c, i)
	}
	a.allocated.Add(int32(size))
}

// bind claims a slot (growing if none is free), binds the stream into
// it and returns the slot id with its status still empty — the caller
// publishes it ready once the admission bookkeeping is done, or
// harvests it immediately for bind-time failures.
func (a *openArena) bind(s *Stream, k int) int32 {
	if len(a.free) == 0 {
		a.grow()
	}
	slot := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.slotStream[slot] = int32(k)
	a.slotTbl[slot].bindSlot(int(a.slotIdx[slot]), s, k, a.export)
	return slot
}

// release recycles a harvested slot.
func (a *openArena) release(slot int32) {
	a.status[slot].v.Store(slotEmpty)
	a.slotStream[slot] = -1
	a.free = append(a.free, slot)
}

// err reports the slot's bind-time configuration error, if any.
func (a *openArena) err(slot int32) error {
	return a.slotTbl[slot].errs[a.slotIdx[slot]]
}
