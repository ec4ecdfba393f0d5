package obs

// This file defines the metric bundles the engine layers accept: flat
// structs of pre-registered instruments, so instrumented code holds
// direct pointers and the hot path never consults the registry. A nil
// bundle pointer disables a layer's instrumentation entirely; the
// individual instruments are additionally nil-receiver-safe.

// FleetMetrics instruments the open/closed fleet engine: the frontier's
// serial-order admission accounting and the scheduler's shape-dependent
// work-distribution counters.
//
// Serial-order metrics are pure functions of the run's serial event
// order — property-tested identical at any (workers, batch).
// The scheduler metrics describe how this particular shape interleaved
// and are tagged shape-dependent in the registry.
type FleetMetrics struct {
	// Frontier (serial-order).
	Arrivals        *Counter    // arrival events decided
	Admitted        *Counter    // verdicts: admit (incl. backlog promotions)
	Delayed         *Counter    // verdicts: queue in the backlog
	Shed            *Counter    // verdicts: shed (incl. terminal backlog shedding)
	Departures      *Counter    // departure events retired by the event loop
	Events          *Counter    // processed event groups (checkpoint-boundary clock)
	Backlog         *Gauge      // current backlog depth
	BacklogMax      *Gauge      // backlog high-water
	BacklogIntegral *FloatGauge // ∫ backlog·dt (stream·virtual-nanoseconds)

	// Scheduler (shape-dependent).
	Batches        *Counter   // cycle batches claimed and advanced by workers
	Steals         *Counter   // slots claimed outside the worker's own slot range
	Parks          *Counter   // workers parked with nothing claimable
	BlockingDrains *Counter   // frontier blocked on a completion to clear a bound gate
	FlushSize      *Histogram // ready slots per lookahead flush
}

// flushBounds buckets the lookahead flush size: the default window is
// 16, and qmfleetd feeds can batch far past it.
var flushBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128}

// NewFleetMetrics registers the fleet instrument set on r.
func NewFleetMetrics(r *Registry) *FleetMetrics {
	return &FleetMetrics{
		Arrivals:        r.Counter("arrivals", "Arrival events decided by the admission frontier.", SerialOrder),
		Admitted:        r.Counter("admitted", "Streams admitted into service (arrival-time and backlog promotions).", SerialOrder),
		Delayed:         r.Counter("delayed", "Arrivals queued in the admission backlog.", SerialOrder),
		Shed:            r.Counter("shed", "Streams shed (arrival-time verdicts and terminal backlog shedding).", SerialOrder),
		Departures:      r.Counter("departures", "Departure events retired by the virtual-time event loop.", SerialOrder),
		Events:          r.Counter("engine_events", "Processed event groups: the engine's checkpoint-boundary clock.", SerialOrder),
		Backlog:         r.Gauge("backlog", "Streams currently queued in the admission backlog.", SerialOrder),
		BacklogMax:      r.Gauge("backlog_max", "Admission backlog high-water mark.", SerialOrder),
		BacklogIntegral: r.FloatGauge("backlog_integral", "Backlog integrated over virtual time (stream·nanoseconds).", SerialOrder),

		Batches:        r.Counter("sched_batches", "Cycle batches claimed and advanced by workers.", ShapeDependent),
		Steals:         r.Counter("sched_steals", "Slots claimed outside the claiming worker's own slot range.", ShapeDependent),
		Parks:          r.Counter("sched_parks", "Worker park transitions with nothing claimable.", ShapeDependent),
		BlockingDrains: r.Counter("sched_blocking_drains", "Frontier waits for a completion to clear a departure-bound gate.", ShapeDependent),
		FlushSize:      r.Histogram("sched_flush_streams", "Ready slots published per lookahead flush.", ShapeDependent, flushBounds),
	}
}

// CheckpointMetrics instruments the checkpoint store. Counters are
// shape-independent facts about the checkpoint sequence; encode time is
// a wall-clock quantity and therefore shape-dependent. NowNanos is the
// store's injected clock — engine-scoped code never reads the wall
// clock itself, so the CLIs supply time.Now and a nil NowNanos simply
// skips duration observation.
type CheckpointMetrics struct {
	Snapshots *Counter // checkpoint records written durably ("checkpoints_total")
	Bytes     *Counter // record bytes written
	Fallbacks *Counter // LoadLatest drops of a corrupt or foreign log tail
	Encode    *Histogram
	NowNanos  func() int64
}

// encodeBounds buckets record encode+write time: 100µs to 10s.
var encodeBounds = []int64{1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// NewCheckpointMetrics registers the checkpoint-store instrument set on
// r.
func NewCheckpointMetrics(r *Registry, now func() int64) *CheckpointMetrics {
	return &CheckpointMetrics{
		Snapshots: r.Counter("checkpoints", "Checkpoint records appended durably by the checkpoint store.", SerialOrder),
		Bytes:     r.Counter("checkpoint_bytes", "Checkpoint record bytes written durably.", SerialOrder),
		Fallbacks: r.Counter("checkpoint_fallbacks", "Corrupt, torn or foreign checkpoint log tails dropped by LoadLatest.", SerialOrder),
		Encode:    r.Histogram("checkpoint_encode_nanos", "Wall-clock nanoseconds to encode and durably write one checkpoint record.", ShapeDependent, encodeBounds),
		NowNanos:  now,
	}
}
