package fleet

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/multitask"
	"repro/internal/obs"
	"repro/internal/sim"
)

// OpenConfig is an open-system fleet run: a stream population with
// arrival instants, an admission controller, and the scheduler shape.
// Where the closed Config starts every stream at once and runs the
// population to completion, the open form drives a virtual-time event
// loop — streams arrive, are admitted / queued / shed, run, and depart.
// A closed fleet is the special case with every arrival at t = 0 under
// AdmitAll, and runs on this same engine.
type OpenConfig struct {
	// Streams is the arriving population, in arrival-process order.
	Streams []Stream
	// Arrivals[k] is stream k's arrival instant in simulated time
	// (typically an arrivals.Process output). It must have exactly one
	// instant per stream, all ≥ 0 and finite; it need not be sorted —
	// the loop orders events by (instant, index).
	Arrivals []core.Time
	// Admit is the admission controller; nil selects AdmitAll.
	Admit Admitter
	// Workers and BatchCycles shape the scheduler exactly as in Config.
	// They change wall-clock time, never results: traces, lifecycles and
	// admission decisions are byte-identical at any (workers, batch).
	// The serial spec ignores both.
	Workers     int
	BatchCycles int
	// Export, when non-nil, supplies an extra per-stream sink, keyed by
	// the stream's index in Streams, that each executed stream's records
	// are teed into alongside its StatsSink; returning nil skips the
	// stream. It is how a caller observes records: the engine keeps
	// none, so one sim.TraceSink per stream collects what a serial
	// sim.Runner would have retained.
	Export func(k int, name string) sim.Sink
	// Obs, when non-nil, enables the engine's metric hooks: the frontier
	// feeds the serial-order instruments (arrivals, verdicts, backlog
	// accounting, event groups) and the executor feeds the
	// shape-dependent ones (batches, steals, parks).
	// Observability on ≡ off is byte-identical — results never depend on
	// it — and the serial-order metric values are themselves identical
	// at any (workers, batch); both are property-tested. The
	// serial spec ignores it.
	Obs *obs.FleetMetrics
	// Trace, when non-nil, records lifecycle events (arrive, admit,
	// shed, bind, complete, steal, park, checkpoint) into the bounded
	// virtual-time ring. Like Obs it never affects results. The serial
	// spec ignores it.
	Trace *obs.Trace
}

// OpenResult collects an open-system run: the per-stream outcomes (in
// input order; shed streams carry neither trace nor stats) plus the
// embedded open-system observations — lifecycles and backlog accounting
// — that metrics.SummarizeOpen aggregates.
type OpenResult struct {
	Streams []StreamResult
	metrics.OpenObservations
	// Admitted, Delayed and Shed count the population's fates: Admitted
	// streams ran, Delayed streams spent time in the backlog (whether
	// eventually admitted or shed), Shed streams never ran. They are
	// derived from Lifecycles, the single record of each verdict.
	Admitted, Delayed, Shed int
}

// FleetResult returns the executed streams as a closed-fleet result, so
// the whole cross-stream aggregation and reporting stack (FleetTable,
// AggregateStats) applies unchanged to an open run.
func (r *OpenResult) FleetResult() *Result {
	res := &Result{Streams: make([]StreamResult, 0, len(r.Streams))}
	for k, s := range r.Streams {
		if r.Lifecycles[k].Shed {
			continue
		}
		res.Streams = append(res.Streams, s)
	}
	return res
}

// Err returns the first per-stream error among executed streams, or nil.
func (r *OpenResult) Err() error {
	for _, s := range r.Streams {
		if s.Err != nil {
			return fmt.Errorf("fleet: stream %q: %w", s.Name, s.Err)
		}
	}
	return nil
}

// OpenRunStats executes the open system on the engine with one
// StatsSink per executed stream — the zero-retention shape: slot memory
// is bounded by the peak concurrency, not the population, and the
// steady-state hot path stays allocation-free.
//
// The engine: a deterministic virtual-time frontier (frontier.go)
// decides every admission in the serial spec's exact event order while
// persistent injection-aware workers (openSched) execute admitted
// streams in the background — no pool start/join per event, no barrier
// on stragglers. Traces, lifecycles and admission decisions are
// byte-identical to OpenRunStatsSerial at any (workers, batch),
// property-tested under -race. OpenRunStats loads the population into
// an OpenLive and runs it to Close.
func OpenRunStats(cfg OpenConfig) (*OpenResult, error) {
	ol, err := loadOpen(&cfg)
	if err != nil {
		return nil, err
	}
	return ol.Close()
}

// errNoStreams is the shared empty-population rejection of both engines.
var errNoStreams = errors.New("fleet: no streams")

func arrivalCountError(streams, instants int) error {
	return fmt.Errorf("fleet: %d streams but %d arrival instants", streams, instants)
}

func arrivalInstantError(k int, t core.Time) error {
	return fmt.Errorf("fleet: stream %d has invalid arrival instant %v", k, t)
}

// departure is a scheduled stream completion in the event heap.
type departure struct {
	t core.Time
	k int
}

// depHeap is a min-heap of departures ordered by (instant, stream
// index) — the index tie-break keeps simultaneous departures
// deterministic.
type depHeap []departure

func (h depHeap) Len() int { return len(h) }
func (h depHeap) Less(i, j int) bool {
	return h[i].t < h[j].t || (h[i].t == h[j].t && h[i].k < h[j].k)
}
func (h depHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *depHeap) Push(x any)   { *h = append(*h, x.(departure)) }
func (h *depHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// OpenRunStatsSerial is the executable specification the engine is
// property-tested against: a plain virtual-time event loop on the
// calling goroutine that starts no goroutine and shares no slot arena
// or executor with the engine. It is serial and deterministic by
// construction — every admission decision is a pure function of
// simulated instants — and it runs each admitted stream to completion
// on the spot (runSerial), which fixes the stream's departure instant
// before the loop moves on. Results are byte-identical to OpenRunStats;
// only wall-clock behaviour differs.
//
// Event ordering: at one instant, departures are retired first (ties by
// stream index), the freed capacity is offered to the FIFO backlog, and
// only then are new arrivals decided (ties by index) — an arrival queues
// behind streams already waiting. A stream still queued when the system
// drains can never be admitted (nothing will free more capacity), so it
// is shed then.
func OpenRunStatsSerial(cfg OpenConfig) (*OpenResult, error) {
	if err := validateOpen(&cfg); err != nil {
		return nil, err
	}
	n := len(cfg.Streams)
	adm := cfg.Admit
	if adm == nil {
		adm = AdmitAll{}
	}

	// Per-stream guaranteed CPU demand for budget policies: the qmin
	// worst case over the resolved period. Streams that fail
	// sim.Runner.Validate weigh nothing: they depart the instant they are
	// admitted without executing, so they must not consume budget that
	// same-instant arrivals are decided against.
	util := make([]float64, n)
	for k := range cfg.Streams {
		r := &cfg.Streams[k].Runner
		if r.Validate() != nil {
			continue
		}
		if u := multitask.Utilization(r.Sys, r.Sys.QMin(), r.ResolvedPeriod()); !math.IsInf(u, 1) {
			util[k] = u
		}
	}

	// Event order: arrivals sorted by (instant, index).
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(cfg.Arrivals[a], cfg.Arrivals[b])
	})

	res := &OpenResult{Streams: make([]StreamResult, n)}
	res.Lifecycles = make([]metrics.Lifecycle, n)
	for k := range res.Streams {
		res.Streams[k].Name = cfg.Streams[k].Name
		res.Lifecycles[k] = metrics.Lifecycle{Name: cfg.Streams[k].Name, Arrival: cfg.Arrivals[k]}
	}

	var (
		dep     depHeap
		backlog []int
		inServe int
		cpuLoad float64
		lastT   = cfg.Arrivals[order[0]]
		lastDep core.Time
	)
	res.FirstArrival = lastT

	// admit enters stream k into service at t, runs it to completion and
	// schedules its departure.
	admit := func(k int, t core.Time) {
		inServe++
		cpuLoad += util[k]
		sr := runSerial(&cfg.Streams[k], k, cfg.Export)
		res.Streams[k] = sr
		lc := &res.Lifecycles[k]
		lc.Admitted = t
		lc.Departed = t
		if sr.Err == nil {
			lc.Departed += sr.Trace.Final
		} else {
			lc.Failed = true
		}
		lastDep = max(lastDep, lc.Departed)
		heap.Push(&dep, departure{t: lc.Departed, k: k})
	}

	// advanceTo integrates the backlog depth over simulated time up to
	// the next event instant.
	advanceTo := func(t core.Time) {
		if t > lastT {
			res.BacklogIntegral += float64(t-lastT) * float64(len(backlog))
			lastT = t
		}
	}

	ai := 0
	for ai < n || dep.Len() > 0 {
		tA := core.TimeInf
		if ai < n {
			tA = cfg.Arrivals[order[ai]]
		}
		if dep.Len() > 0 && dep[0].t <= tA {
			t := dep[0].t
			advanceTo(t)
			for dep.Len() > 0 && dep[0].t == t {
				d := heap.Pop(&dep).(departure)
				inServe--
				cpuLoad -= util[d.k]
			}
			// Offer the freed capacity to the backlog in FIFO order; a
			// Shed verdict for the head is treated as Delay (shedding is
			// an arrival-time decision).
			for len(backlog) > 0 {
				k := backlog[0]
				if adm.Decide(Load{T: t, InService: inServe, Backlog: 0, CPULoad: cpuLoad}, util[k]) != Admit {
					break
				}
				backlog = backlog[1:]
				admit(k, t)
			}
			continue
		}
		t := tA
		advanceTo(t)
		for ai < n && cfg.Arrivals[order[ai]] == t {
			k := order[ai]
			ai++
			switch adm.Decide(Load{T: t, InService: inServe, Backlog: len(backlog), CPULoad: cpuLoad}, util[k]) {
			case Admit:
				admit(k, t)
			case Delay:
				backlog = append(backlog, k)
				res.Lifecycles[k].Queued = true
				res.MaxBacklog = max(res.MaxBacklog, len(backlog))
			default:
				res.Lifecycles[k].Shed = true
			}
		}
	}

	// Streams still queued when the system drained can never be admitted
	// — no departure will ever free more capacity — so they are shed at
	// the end of the run (head-of-line blocking under FIFO: a stream the
	// budget can never fit starves everything behind it).
	for _, k := range backlog {
		res.Lifecycles[k].Shed = true
	}

	for _, lc := range res.Lifecycles {
		if lc.Shed {
			res.Shed++
		} else {
			res.Admitted++
		}
		if lc.Queued {
			res.Delayed++
		}
	}
	res.End = lastT
	res.Final = lastDep
	return res, nil
}

// runSerial runs a copy of stream k's Runner to completion on the
// calling goroutine and returns its result in the engine's shape: a
// fresh StatsSink, teed into Export(k, name) when that returns a sink,
// replaces any caller-set sink, and an empty histogram reads as nil.
func runSerial(s *Stream, k int, export func(k int, name string) sim.Sink) StreamResult {
	sr := StreamResult{Name: s.Name}
	r := s.Runner
	levels := 0
	if r.Sys != nil {
		levels = r.Sys.NumLevels()
	}
	sr.Stats = sim.NewStatsSink(levels)
	r.Sink = sr.Stats
	if export != nil {
		if extra := export(k, s.Name); extra != nil {
			r.Sink = sim.TeeSink{sr.Stats, extra}
		}
	}
	sr.Trace, sr.Err = r.Run()
	if len(sr.Stats.QualityHist) == 0 {
		sr.Stats.QualityHist = nil
	}
	return sr
}
