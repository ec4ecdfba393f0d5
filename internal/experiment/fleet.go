package experiment

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/regions"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// FleetStreams builds n independent copies of the paper's encoder
// stream, all sharing this setup's pre-computed tables (one manager
// instance per stream over the same immutable regions). Stream k draws
// its content from the setup's own execution model reseeded with
// fleet.DeriveSeed(seed, k), so the fleet models n users watching n
// different inputs on identical hardware and stays in lockstep with
// whatever content model Paper defines. A setup whose Exec is not a
// sim.Content cannot be reseeded per stream and is rejected — silently
// running n byte-identical streams would make every cross-stream
// statistic meaningless.
//
// Streams run the memoized sim.FastContent form of the model — the
// action-complexity profile tabulated once and shared read-only by all
// n streams, the frame factor cached per cycle — which draws
// bit-identical times to the plain model (property-tested in sim).
func (s *Setup) FleetStreams(seed uint64, n int) ([]fleet.Stream, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiment: non-positive stream count %d", n)
	}
	content, ok := s.Exec.(sim.Content)
	if !ok {
		return nil, fmt.Errorf("experiment: fleet needs a sim.Content execution model to reseed per stream, got %T", s.Exec)
	}
	base := sim.NewFastContent(content, s.Sys.NumActions())
	streams := make([]fleet.Stream, n)
	for k := 0; k < n; k++ {
		streams[k] = fleet.Stream{
			Name: fmt.Sprintf("encoder-%03d", k),
			Runner: sim.Runner{
				Sys:      s.Sys,
				Mgr:      s.Relaxed(),
				Exec:     base.WithSeed(fleet.DeriveSeed(seed, k)),
				Overhead: s.Overhead,
				Cycles:   s.Cycles,
				Period:   s.Period,
			},
		}
	}
	return streams, nil
}

// FleetStreamsUncached is FleetStreams with every stream driven by the
// uncached relaxed manager — the table-probing path that bypasses the
// regions.DecisionPlan memo. Traces are byte-identical to FleetStreams
// runs (the plan preserves Work accounting exactly); only the decision
// cost differs, which is what lets the throughput benchmarks account
// for the plan cache separately.
func (s *Setup) FleetStreamsUncached(seed uint64, n int) ([]fleet.Stream, error) {
	streams, err := s.FleetStreams(seed, n)
	if err != nil {
		return nil, err
	}
	for k := range streams {
		streams[k].Runner.Mgr = regions.NewRelaxedManagerUncached(s.Relax)
	}
	return streams, nil
}

// WorkloadFleet builds a mixed fleet over the workloads catalog: stream
// k runs catalog workload k mod |catalog| (audio encoder, SDR pipeline,
// video decoder, in name order) under its own relaxed manager, with
// per-stream content seeded from the base seed. The region tables are
// compiled once per workload and shared by all of its streams.
func WorkloadFleet(seed uint64, n, cycles int) ([]fleet.Stream, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiment: non-positive stream count %d", n)
	}
	if cycles <= 0 {
		return nil, fmt.Errorf("experiment: non-positive cycle count %d", cycles)
	}
	cat, err := workloads.Catalog()
	if err != nil {
		return nil, err
	}
	names := []string{"audio-encoder", "sdr-pipeline", "video-decoder"}
	if n < len(names) {
		// Fewer streams than workloads: don't compile tables nobody
		// runs. Trimming keeps the k mod len(names) assignment intact.
		names = names[:n]
	}
	byName := map[string]*regions.RelaxTables{}
	for _, name := range names {
		sys, ok := cat[name]
		if !ok {
			return nil, fmt.Errorf("experiment: catalog missing workload %q", name)
		}
		rt, err := regions.BuildRelaxTables(regions.BuildTDTable(sys), []int{1, 5, 10, 25})
		if err != nil {
			return nil, err
		}
		byName[name] = rt
	}
	streams := make([]fleet.Stream, n)
	for k := 0; k < n; k++ {
		name := names[k%len(names)]
		sys := cat[name]
		streams[k] = fleet.Stream{
			Name: fmt.Sprintf("%s-%03d", name, k),
			Runner: sim.Runner{
				Sys:      sys,
				Mgr:      regions.NewRelaxedManager(byName[name]),
				Exec:     sim.Content{Sys: sys, NoiseAmp: 0.3, Seed: fleet.DeriveSeed(seed, k)},
				Overhead: sim.IPodOverhead,
				Cycles:   cycles,
			},
		}
	}
	return streams, nil
}
