package fleet

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// OpenLiveConfig shapes an incremental open run: the admission
// controller and scheduler shape of OpenConfig, without a population —
// streams are fed one at a time as their arrivals become known.
type OpenLiveConfig struct {
	// Admit is the admission controller; nil selects AdmitAll.
	Admit Admitter
	// Workers and BatchCycles shape the scheduler exactly as in
	// OpenConfig: they change wall-clock time, never results.
	Workers     int
	BatchCycles int
	// Lookahead is OpenConfig.Lookahead: the admission batch size per
	// executor wake (≤ 0 selects DefaultLookahead). Results are
	// byte-identical at any value.
	Lookahead int
	// MaxLevels bounds the quality-level count of every stream that
	// will ever be fed — the uniform histogram window width of the slot
	// arena, which cannot be widened once slots are live. Feeding a
	// stream with more levels is an error.
	MaxLevels int
	// Obs, when non-nil, enables the engine's metric hooks exactly as
	// OpenConfig.Obs does: results are byte-identical with it on or off.
	Obs *obs.FleetMetrics
	// Trace, when non-nil, records engine events into a bounded ring
	// exactly as OpenConfig.Trace does.
	Trace *obs.Trace
	// Scratch, when non-nil, amortizes the run's working memory exactly
	// as OpenConfig.Scratch does: slot-arena chunks, heaps, population
	// slabs and result slabs are reused, so a warm steady-state live run
	// at Workers = 1 is allocation-free end to end. The same aliasing
	// rule applies — the sealed OpenResult is valid only until the
	// scratch's next run.
	Scratch *OpenScratch
}

// OpenLive is the incremental form of OpenRunStats: the same
// deterministic frontier and executor, driven by a caller that learns
// arrivals one at a time (a serving daemon reading an event stream)
// instead of holding the whole schedule up front. Feed appends one
// arrival and advances the event loop through every instant the fed
// prefix fully determines; Close drains the system and seals the
// result. For one and the same (streams, arrivals, admitter) sequence,
// the sealed result is byte-identical to OpenRunStats over the batch
// configuration — the fed order simply is the spec's (instant, index)
// order, and the watermark withholds exactly the events a future feed
// could still precede.
//
// An OpenLive belongs to one goroutine; the concurrency inside (the
// executor pool) is the engine's own.
type OpenLive struct {
	sc      *OpenScratch
	f       *openFrontier
	lastFed core.Time
	closed  bool
}

// NewOpenLive starts an empty incremental run with a running (idle)
// executor pool.
func NewOpenLive(cfg OpenLiveConfig) *OpenLive {
	sc := cfg.Scratch
	if sc == nil {
		sc = NewOpenScratch()
	}
	f := initFrontier(sc, true, cfg.Admit, cfg.Lookahead, cfg.Obs, cfg.Trace)
	f.maxLevels = cfg.MaxLevels
	sc.arena.reset(0, true, nil, cfg.MaxLevels)
	f.arena = &sc.arena
	// The population and result slabs restart empty but keep their
	// backing arrays: a warm scratch makes every appendStream below a
	// capacity-reusing append.
	sc.order, sc.util, sc.minFin, sc.final = sc.order[:0], sc.util[:0], sc.minFin[:0], sc.final[:0]
	sc.lifecycles, sc.streams = sc.lifecycles[:0], sc.streams[:0]
	sc.traces, sc.stats, sc.hist = sc.traces[:0], sc.stats[:0], sc.hist[:0]
	f.streams, f.arr = sc.liveStreams[:0], sc.liveArr[:0]
	sc.res = OpenResult{}
	f.res = &sc.res
	f.attachExec(math.MaxInt, cfg.Workers, cfg.BatchCycles)
	// The returned header lives in the scratch: a warm NewOpenLive
	// performs no allocation whatsoever.
	ol := &sc.live
	*ol = OpenLive{sc: sc, f: f}
	return ol
}

// Feed appends one stream with its arrival instant and advances the
// event loop through every group at instants strictly before t. The
// strictness is what preserves the batch spec's simultaneity semantics:
// a later Feed may still add an arrival at exactly t, and the spec
// decides all arrivals of one instant in a single group (interleaved
// with any same-instant departures in a fixed order), so instant t
// stays unprocessed until a feed moves the watermark past it. Arrival
// instants must be non-decreasing across feeds — the fed order then is
// the spec's (instant, index) event order.
func (ol *OpenLive) Feed(s Stream, t core.Time) error {
	if ol.closed {
		return errors.New("fleet: Feed on a closed OpenLive")
	}
	if t < 0 || t.IsInf() {
		return arrivalInstantError(ol.f.n, t)
	}
	if t < ol.lastFed {
		return fmt.Errorf("fleet: Feed out of order: arrival %v after %v", t, ol.lastFed)
	}
	if sys := s.Runner.Sys; sys != nil && sys.NumLevels() > ol.f.maxLevels {
		return fmt.Errorf("fleet: stream %q has %d levels, over the configured MaxLevels %d", s.Name, sys.NumLevels(), ol.f.maxLevels)
	}
	ol.lastFed = t
	ol.appendStream(s, t)
	ol.growArena()
	for ol.f.step(t - 1) {
	}
	return nil
}

// appendStream grows every per-stream slab by one entry and rebinds the
// frontier's slice headers — the incremental counterpart of
// newFrontier's layout pass. Slab reallocation here is safe without a
// quiesce: these arrays are the frontier's alone (workers touch only
// the arena), and result entries already harvested keep pointing into
// the old backing, which is never mutated again.
func (ol *OpenLive) appendStream(s Stream, t core.Time) {
	f, sc := ol.f, ol.sc
	k := f.n
	f.streams = append(f.streams, s)
	f.arr = append(f.arr, t)
	sc.liveStreams, sc.liveArr = f.streams, f.arr
	u, mf := streamWeight(&f.streams[k].Runner, true)
	sc.order = append(sc.order, int32(k))
	sc.util = append(sc.util, u)
	sc.minFin = append(sc.minFin, mf)
	sc.final = append(sc.final, false)
	sc.lifecycles = append(sc.lifecycles, metrics.Lifecycle{Name: s.Name, Arrival: t})
	sc.streams = append(sc.streams, StreamResult{Name: s.Name})
	sc.traces = append(sc.traces, sim.Trace{})
	sc.stats = append(sc.stats, sim.StatsSink{})
	for i := 0; i < f.maxLevels; i++ {
		// Element-wise, not append(…, make(…)…): the spread form builds
		// a temporary slice per feed and would cost the warm scratch its
		// allocation-free steady state.
		sc.hist = append(sc.hist, 0)
	}
	f.n = k + 1
	f.order, f.util, f.minFin, f.final = sc.order, sc.util, sc.minFin, sc.final
	sc.res.Streams = sc.streams
	sc.res.Lifecycles = sc.lifecycles
	if k == 0 {
		f.lastT = t
		f.res.FirstArrival = t
	}
}

// growArena widens the arena's flat indirection arrays to the fed
// population under an executor quiesce — the one shared structure
// Feed's growth touches that workers scan concurrently.
func (ol *OpenLive) growArena() {
	f := ol.f
	if f.n <= len(f.arena.slotTbl) {
		return
	}
	f.exec.quiesce()
	f.arena.ensurePopulation(f.n)
	f.exec.release()
}

// Events returns the number of event groups processed so far — the
// checkpoint-boundary clock a serving driver keys its snapshot interval
// on.
func (ol *OpenLive) Events() int64 { return ol.f.events }

// Population returns the number of streams fed so far.
func (ol *OpenLive) Population() int { return ol.f.n }

// Backlog returns the number of delayed streams currently queued for
// admission — the readiness signal a serving driver exposes. Like every
// OpenLive method it belongs to the owner goroutine.
func (ol *OpenLive) Backlog() int { return ol.f.blLen }

// InService returns the number of streams admitted and not yet departed
// in serial-event-order terms — together with Backlog and CPULoad, the
// watermark-consistent load a cluster router reads to place the next
// arrival.
func (ol *OpenLive) InService() int { return ol.f.inServe }

// CPULoad returns the summed multitask utilization of the in-service
// streams — the committed fraction of the simulated CPU budget, in the
// same serial-order terms as InService.
func (ol *OpenLive) CPULoad() float64 { return ol.f.cpuLoad }

// Advance processes every event group the fed prefix fully determines
// at instants up to and including the watermark, blocking (bounded, via
// the departure-bound gate) only when an in-flight completion gates a
// decision. After Advance(t), Backlog/InService/CPULoad report the
// serial-order state with every departure, promotion and fed arrival at
// instants ≤ t accounted for — a pure function of the fed sequence,
// independent of (workers, batch, lookahead). Feeding an arrival at an
// instant ≤ a previously advanced watermark is an order error, exactly
// as feeding out of arrival order is.
func (ol *OpenLive) Advance(watermark core.Time) error {
	if ol.closed {
		return errors.New("fleet: Advance on a closed OpenLive")
	}
	if watermark > ol.lastFed {
		ol.lastFed = watermark
	}
	for ol.f.step(watermark) {
	}
	return nil
}

// Checkpoint pauses execution at a cycle-batch quiescence point and
// returns a deep capture of the run, then lets the pool resume. The
// capture plus the fed (streams, arrivals) prefix is everything a
// Restore needs to continue the run with byte-identical results.
func (ol *OpenLive) Checkpoint() (*OpenCapture, error) {
	if ol.closed {
		return nil, errors.New("fleet: Checkpoint on a closed OpenLive")
	}
	return ol.f.checkpoint(), nil
}

// Restore rebuilds a freshly created OpenLive from a capture and the
// exact (streams, arrivals) population that had been fed when it was
// taken. Subsequent feeds continue the run; results are byte-identical
// to the run that never stopped.
func (ol *OpenLive) Restore(c *OpenCapture, streams []Stream, arrivals []core.Time) error {
	if ol.closed {
		return errors.New("fleet: Restore on a closed OpenLive")
	}
	if ol.f.n != 0 || ol.f.events != 0 {
		return errors.New("fleet: Restore on a used OpenLive")
	}
	if len(streams) != len(c.Lifecycles) || len(arrivals) != len(streams) {
		return errCorruptCapture(fmt.Sprintf("capture covers %d streams, caller re-fed %d with %d arrivals", len(c.Lifecycles), len(streams), len(arrivals)))
	}
	for i := range streams {
		t := arrivals[i]
		if t < 0 || t.IsInf() || t < ol.lastFed {
			return errCorruptCapture(fmt.Sprintf("re-fed arrival %d out of order", i))
		}
		if t != c.Lifecycles[i].Arrival {
			return errCorruptCapture(fmt.Sprintf("re-fed arrival %d is %v, capture recorded %v", i, t, c.Lifecycles[i].Arrival))
		}
		if sys := streams[i].Runner.Sys; sys != nil && sys.NumLevels() > ol.f.maxLevels {
			return fmt.Errorf("fleet: stream %q has %d levels, over the configured MaxLevels %d", streams[i].Name, sys.NumLevels(), ol.f.maxLevels)
		}
		ol.lastFed = t
		ol.appendStream(streams[i], t)
	}
	ol.growArena()
	return ol.f.restore(c)
}

// Abort shuts the executor pool down without draining or sealing: the
// run is discarded (after a Checkpoint, typically, whose capture is all
// that survives). Safe on an already-closed OpenLive.
func (ol *OpenLive) Abort() {
	if ol.closed {
		return
	}
	ol.closed = true
	ol.f.exec.shutdown()
}

// Close drains every remaining event, seals and returns the result —
// OpenResult has the exact shape and content of an OpenRunStats over
// the full fed population. The executor pool shuts down; the OpenLive
// is spent. Closing with no streams fed returns the no-streams error,
// like the batch entry points.
func (ol *OpenLive) Close() (*OpenResult, error) {
	if ol.closed {
		return nil, errors.New("fleet: OpenLive closed twice")
	}
	ol.closed = true
	defer ol.f.exec.shutdown()
	if ol.f.n == 0 {
		return nil, errNoStreams
	}
	for ol.f.step(core.TimeInf) {
	}
	ol.f.finishRun()
	return ol.f.res, nil
}
