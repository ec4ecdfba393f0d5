// Package fleet is the concurrent multi-stream engine: it runs N
// independent quality-managed streams — each with its own cycle clock,
// RNG seed and workload — on one engine. A deterministic virtual-time
// frontier (frontier.go) admits arriving streams into a slot arena of
// struct-of-arrays chunks (contiguous slabs of clocks, cycle counters,
// trace aggregates and StatsSink accumulators), and persistent workers
// advance the admitted streams in configurable cycle batches, each
// sweeping its own contiguous range of slots and touching a shared
// atomic counter only to steal once that range is dry — there is no
// channel round-trip per stream-step. A closed fleet (RunStats) is the
// open system with every stream arriving at t = 0 under AdmitAll.
// The paper's Quality Manager was built for exactly this reuse:
// core.Manager decisions are deterministic functions of (state, time)
// over immutable pre-computed tables (memoized further by the regions
// DecisionPlan), so one compiled controller.Bundle can drive
// arbitrarily many concurrent streams without locks.
//
// The engine guarantees that scheduling changes wall-clock time, never
// results: every stream is executed through the same sim.Stream path as
// a serial sim.Runner, so a stream's trace is byte-identical to the
// serial run at the same seed regardless of worker count or batch size,
// and an open run is byte-identical to the serial, single-goroutine
// spec (OpenRunStatsSerial). One driver, OpenLive, runs the engine:
// batch runs load their population into it, serving runs feed it.
//
// Every executed stream streams its records into its own StatsSink, and
// no record is retained: results carry each stream's scalar trace and
// its sink. A caller that needs the records themselves tees a sink in
// through Export; the serial sim.Runner still retains them.
//
// Each run owns its working memory: every OpenLive builds a fresh
// frontier with its own slabs, slot arena and result, so no result or
// capture aliases memory that another run writes.
package fleet

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Stream configures one independent quality-managed stream: a name
// plus the embedded serial runner configuration, so the fleet cannot
// drift from what a serial run honours. Runner.Mgr must be a
// per-stream instance unless it is stateless (the policy and table
// managers are; baseline feedback controllers are not).
type Stream struct {
	Name string
	sim.Runner
}

// Config is a fleet run: the streams plus the scheduler shape.
type Config struct {
	Streams []Stream
	// Workers bounds the persistent worker pool (≤ 0 selects
	// GOMAXPROCS, capped at the stream count; 1 runs on the calling
	// goroutine). Each worker sweeps its own contiguous range of slots
	// and advances its streams in cycle batches; a worker whose range is
	// dry steals ready streams from the others. Worker count and
	// stealing order change wall-clock time, never results.
	Workers int
	// BatchCycles is the number of cycles a worker advances one stream
	// before moving on to the next in its range (≤ 0 selects
	// DefaultBatchCycles). Traces are independent of the batch size.
	BatchCycles int
	// Export, when non-nil, supplies an extra per-stream sink (e.g. a
	// CSVWriter's per-stream sinks) that RunStats tees each stream's
	// records into alongside its StatsSink; returning nil skips the
	// stream.
	Export func(k int, name string) sim.Sink
	// Obs, when non-nil, enables the engine's metric hooks exactly as
	// OpenConfig.Obs does: the frontier's serial-order counters see n
	// arrivals, n admissions and n departures (nothing is delayed or
	// shed), and the executor's shape-dependent ones see its batches,
	// steals and parks. Results are byte-identical with it on or off.
	Obs *obs.FleetMetrics
	// Trace, when non-nil, records engine events (arrive, admit, bind,
	// complete, steal, park) into a bounded ring.
	Trace *obs.Trace
}

// StreamResult pairs a stream with its trace (or per-stream error). The
// trace carries only the O(1) scalar aggregates; Stats holds the
// streamed record-derived quantities.
type StreamResult struct {
	Name  string
	Trace *sim.Trace
	// Stats is the stream's zero-retention aggregate; nil only for a
	// stream that was shed before it ran.
	Stats *sim.StatsSink
	Err   error
}

// Result collects the per-stream outcomes of a fleet run, in input
// order.
type Result struct {
	Streams []StreamResult
}

// Err returns the first per-stream error, or nil if every stream ran.
func (r *Result) Err() error {
	for _, s := range r.Streams {
		if s.Err != nil {
			return fmt.Errorf("fleet: stream %q: %w", s.Name, s.Err)
		}
	}
	return nil
}

// RunStats executes every stream of the fleet with one StatsSink per
// stream and returns the per-stream results in input order. No records
// are retained anywhere, so fleet memory is O(streams · |Q|) instead of
// O(streams × cycles × actions), and the steady-state hot path is
// allocation-free. Each StreamResult carries the scalar-only trace plus
// its Stats; metrics.AggregateStats turns them into the same
// FleetSummary that metrics.AggregateTraces yields over serial
// sim.Runner traces (property-tested). Any sink the caller pre-set on a
// stream's Runner is replaced; Config.Export sinks are teed in.
// Configuration errors of individual streams are reported per stream,
// so one bad stream does not abort the fleet.
//
// The closed fleet runs as the open system it is: every stream arrives
// at t = 0 under AdmitAll, so nothing is delayed or shed and each
// stream's result is exactly its serial run.
func RunStats(cfg Config) (*Result, error) {
	res, err := OpenRunStats(OpenConfig{
		Streams:     cfg.Streams,
		Arrivals:    make([]core.Time, len(cfg.Streams)),
		Workers:     cfg.Workers,
		BatchCycles: cfg.BatchCycles,
		Export:      cfg.Export,
		Obs:         cfg.Obs,
		Trace:       cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Streams: res.Streams}, nil
}

// DeriveSeed maps (base seed, stream index) to the stream's own seed
// with the splitmix64 avalanche, so fleets get decorrelated per-stream
// content without the caller managing N seeds. It is a pure function:
// the same base and index always give the same stream seed.
func DeriveSeed(base uint64, stream int) uint64 {
	return sim.Mix64(base + 0x9E3779B97F4A7C15*(uint64(stream)+1))
}

// ForSubsystem splits one base seed into a named subsystem's own seed
// domain: the subsystem name is folded in with FNV-1a before the
// splitmix64 avalanche, so every subsystem draws from a provably
// distinct stream and — the load-bearing property — adding a draw in
// one subsystem can never shift the sequence of another. This is the
// keyed split a cluster needs: the router's policy draws, each
// instance's workload seeds and the arrival process all derive from the
// same user-facing base seed without any coupling:
//
//	router   := ForSubsystem(base, "cluster/router")
//	workload := DeriveSeed(ForSubsystem(base, "cluster/workload"), k)
//
// ForSubsystem(base, name) is a pure function; goldens pin the mapping
// so a silent derivation change cannot re-seed every published result.
func ForSubsystem(base uint64, subsystem string) uint64 {
	// FNV-1a 64 over the subsystem name: cheap, dependency-free, and a
	// different fold than DeriveSeed's index arithmetic, so (base, k)
	// and (base, name) splits cannot collide structurally.
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < len(subsystem); i++ {
		h ^= uint64(subsystem[i])
		h *= 0x100000001B3
	}
	return sim.Mix64(base ^ sim.Mix64(h))
}

// Options configure the streams FromBundle and BundleStream build.
type Options struct {
	// Manager selects the per-stream Quality Manager instantiated from
	// the bundle: "symbolic", "relaxed" (default) or "numeric".
	Manager string
	// Cycles per stream (required).
	Cycles int
	// Overhead is the platform's management-cost model.
	Overhead sim.OverheadModel
	// BaseSeed seeds FromBundle's fleet; stream k draws content with
	// DeriveSeed(BaseSeed, k). BundleStream takes its seed explicitly.
	BaseSeed uint64
	// NoiseAmp is the content model's jitter amplitude.
	NoiseAmp float64
}

// FromBundle builds n streams that all instantiate their manager from
// one shared, immutable compiled bundle — the deployment shape the
// paper's tool flow targets: compile once, serve many streams.
func FromBundle(b *controller.Bundle, n int, opt Options) ([]Stream, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fleet: non-positive stream count %d", n)
	}
	streams := make([]Stream, n)
	for k := range streams {
		s, err := BundleStream(b, fmt.Sprintf("%s-%03d", b.Spec().Name, k), DeriveSeed(opt.BaseSeed, k), opt)
		if err != nil {
			return nil, err
		}
		streams[k] = s
	}
	return streams, nil
}

// BundleStream builds one stream, named name and drawing content with
// seed, whose manager is instantiated from b — FromBundle's stream
// construction for a caller that learns its streams one at a time (a
// serving daemon). opt.BaseSeed is not used.
func BundleStream(b *controller.Bundle, name string, seed uint64, opt Options) (Stream, error) {
	if opt.Cycles <= 0 {
		return Stream{}, fmt.Errorf("fleet: stream %q: non-positive cycle count %d", name, opt.Cycles)
	}
	var mgr core.Manager
	switch opt.Manager {
	case "", "relaxed":
		mgr = b.Relaxed()
	case "symbolic":
		mgr = b.Symbolic()
	case "numeric":
		mgr = b.Numeric()
	default:
		return Stream{}, fmt.Errorf("fleet: unknown manager %q", opt.Manager)
	}
	sys := b.System()
	return Stream{
		Name: name,
		Runner: sim.Runner{
			Sys: sys,
			Mgr: mgr,
			Exec: sim.Content{
				Sys:      sys,
				NoiseAmp: opt.NoiseAmp,
				Seed:     seed,
			},
			Overhead: opt.Overhead,
			Cycles:   opt.Cycles,
		},
	}, nil
}
