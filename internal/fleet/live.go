package fleet

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

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
}

// OpenLive is the engine's one driver: every run of the deterministic
// frontier and its executor goes through an OpenLive. A caller that
// learns arrivals one at a time (a serving daemon reading an event
// stream) feeds it: Feed appends one arrival and advances the event
// loop through every instant the fed prefix fully determines; Close
// drains the system and seals the result. The batch entry points
// (OpenRunStats, OpenRunStatsCheckpointed and RunStats) load their
// whole population into one and run it to Close. For one and
// the same (streams, arrivals, admitter) sequence, a fed run seals a
// result byte-identical to OpenRunStats over the batch configuration —
// the fed order simply is the spec's (instant, index) order, and the
// watermark withholds exactly the events a future feed could still
// precede.
//
// An OpenLive belongs to one goroutine; the concurrency inside (the
// executor pool) is the engine's own.
type OpenLive struct {
	f       *openFrontier
	lastFed core.Time
	closed  bool
}

// NewOpenLive starts an empty incremental run with a running (idle)
// executor pool.
func NewOpenLive(cfg OpenLiveConfig) *OpenLive {
	return newOpenLive(cfg, nil, 0)
}

// newOpenLive starts an empty run on a fresh frontier — the one place a
// frontier is built. loadOpen passes what OpenLiveConfig does not carry:
// export is OpenConfig.Export, and n is the population about to be
// loaded, which sizes the arena's indirection arrays once and caps the
// pool. A live run passes n = 0: its arrays grow as it is fed, and its
// pool is uncapped.
func newOpenLive(cfg OpenLiveConfig, export func(int, string) sim.Sink, n int) *OpenLive {
	adm := cfg.Admit
	if adm == nil {
		adm = AdmitAll{}
	}
	f := &openFrontier{maxLevels: cfg.MaxLevels, adm: adm, look: lookahead, met: cfg.Obs, tr: cfg.Trace}
	f.arena.export, f.arena.maxLevels = export, cfg.MaxLevels
	f.arena.ensurePopulation(n)
	pool := math.MaxInt
	if n > 0 {
		pool = n
	}
	f.attachExec(pool, cfg.Workers, cfg.BatchCycles)
	return &OpenLive{f: f}
}

// loadOpen validates a batch configuration and loads its population
// into an OpenLive that is ready to run to Close: one appendStream per
// stream in input order, then the spec's stable (instant, index) sort
// when the arrival slab is unsorted. Arrival processes emit
// non-decreasing instants, so the sort is the exception.
func loadOpen(cfg *OpenConfig) (*OpenLive, error) {
	if err := validateOpen(cfg); err != nil {
		return nil, err
	}
	maxLevels := 0
	for k := range cfg.Streams {
		if sys := cfg.Streams[k].Runner.Sys; sys != nil {
			maxLevels = max(maxLevels, sys.NumLevels())
		}
	}
	ol := newOpenLive(OpenLiveConfig{Admit: cfg.Admit, Workers: cfg.Workers, BatchCycles: cfg.BatchCycles,
		MaxLevels: maxLevels, Obs: cfg.Obs, Trace: cfg.Trace},
		cfg.Export, len(cfg.Streams))
	ol.reserve(len(cfg.Streams))
	for k := range cfg.Streams {
		ol.appendStream(cfg.Streams[k], cfg.Arrivals[k])
	}
	if f := ol.f; !slices.IsSorted(f.arr) {
		slices.SortStableFunc(f.order, func(a, b int32) int {
			return cmp.Compare(f.arr[a], f.arr[b])
		})
		f.lastT = f.arr[f.order[0]]
		f.res.FirstArrival = f.lastT
	}
	return ol, nil
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

// appendStream grows every per-stream slab by one entry — the one
// layout path of the frontier, for fed and loaded populations alike.
// Slab reallocation here is safe without a quiesce: these arrays are the
// frontier's alone (workers touch only the arena), and result entries
// already harvested keep pointing into the old backing, which is never
// mutated again.
func (ol *OpenLive) appendStream(s Stream, t core.Time) {
	f := ol.f
	k := f.n
	f.streams = append(f.streams, s)
	f.arr = append(f.arr, t)
	u, mf := streamWeight(&f.streams[k].Runner)
	f.order = append(f.order, int32(k))
	f.util = append(f.util, u)
	f.minFin = append(f.minFin, mf)
	f.final = append(f.final, false)
	f.res.Lifecycles = append(f.res.Lifecycles, metrics.Lifecycle{Name: s.Name, Arrival: t})
	f.res.Streams = append(f.res.Streams, StreamResult{Name: s.Name})
	f.traces = append(f.traces, sim.Trace{})
	f.stats = append(f.stats, sim.StatsSink{})
	for i := 0; i < f.maxLevels; i++ {
		// Element-wise, not append(…, make(…)…): under -race the
		// compiler does not fuse the spread form, and its temporary
		// slice would cost one allocation per feed.
		f.hist = append(f.hist, 0)
	}
	f.n = k + 1
	if k == 0 {
		f.lastT = t
		f.res.FirstArrival = t
	}
}

// reserve sizes every per-stream slab, and the close order, for n more
// streams at once, so a population loaded or re-fed in one go grows each
// slab once instead of one appendStream at a time.
func (ol *OpenLive) reserve(n int) {
	f := ol.f
	f.streams = slices.Grow(f.streams, n)
	f.arr = slices.Grow(f.arr, n)
	f.order = slices.Grow(f.order, n)
	f.util = slices.Grow(f.util, n)
	f.minFin = slices.Grow(f.minFin, n)
	f.final = slices.Grow(f.final, n)
	f.closed = slices.Grow(f.closed, n)
	f.res.Lifecycles = slices.Grow(f.res.Lifecycles, n)
	f.res.Streams = slices.Grow(f.res.Streams, n)
	f.traces = slices.Grow(f.traces, n)
	f.stats = slices.Grow(f.stats, n)
	f.hist = slices.Grow(f.hist, n*f.maxLevels)
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
// independent of (workers, batch). Feeding an arrival at an
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
// returns a capture of the run, then lets the pool resume. The capture
// plus the fed (streams, arrivals) prefix is everything a Restore needs
// to continue the run with byte-identical results. It copies the open
// state only — live slots, backlog, pending departures — and views the
// closed streams' result cells, so its cost follows the streams in
// flight, not the population fed so far.
func (ol *OpenLive) Checkpoint() (*OpenCapture, error) {
	if ol.closed {
		return nil, errors.New("fleet: Checkpoint on a closed OpenLive")
	}
	return ol.f.checkpoint(), nil
}

// Restore rebuilds a freshly created OpenLive from a capture and the
// exact (streams, arrivals) population that had been fed when it was
// taken. Subsequent feeds continue the run; results are byte-identical
// to the run that never stopped. Every closed stream in the capture
// must carry the name and arrival instant re-fed for it.
func (ol *OpenLive) Restore(c *OpenCapture, streams []Stream, arrivals []core.Time) error {
	if ol.closed {
		return errors.New("fleet: Restore on a closed OpenLive")
	}
	if ol.f.n != 0 || ol.f.events != 0 {
		return errors.New("fleet: Restore on a used OpenLive")
	}
	if len(streams) != c.Streams || len(arrivals) != len(streams) {
		return errCorruptCapture(fmt.Sprintf("capture covers %d streams, caller re-fed %d with %d arrivals", c.Streams, len(streams), len(arrivals)))
	}
	ol.reserve(len(streams))
	for i := range streams {
		t := arrivals[i]
		if t < 0 || t.IsInf() || t < ol.lastFed {
			return errCorruptCapture(fmt.Sprintf("re-fed arrival %d out of order", i))
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
	return &ol.f.res, nil
}
