package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/arrivals"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
)

// E10 — the steady-state fleet hot path. One op is one Stream.Step — a
// full 1,189-action frame of the paper's encoder under the relaxed
// manager feeding a StatsSink. The acceptance bar of the zero-retention
// sink layer is 0 allocs/op: quality management, content drawing and
// statistics aggregation all run without touching the heap, so fleet
// memory is O(streams) however long the streams run.
func BenchmarkFleetStep(b *testing.B) {
	s := experiment.Paper(1)
	content, ok := s.Exec.(sim.Content)
	if !ok {
		b.Fatalf("paper setup exec is %T", s.Exec)
	}
	r := &sim.Runner{
		Sys: s.Sys,
		Mgr: s.Relaxed(),
		// The memoized per-stream model, exactly what FleetStreams runs.
		Exec:     sim.NewFastContent(content, s.Sys.NumActions()),
		Overhead: s.Overhead,
		Cycles:   1 << 30, // steady state: never exhausts within a benchmark
		Period:   s.Period,
		Sink:     sim.NewStatsSink(s.Sys.NumLevels()),
	}
	st, err := r.Stream()
	if err != nil {
		b.Fatal(err)
	}
	if !st.Step() { // steady state: lazy decision-plan build happens here, untimed
		b.Fatal("stream exhausted during warm-up")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !st.Step() {
			b.Fatal("stream exhausted")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.Sys.NumActions()), "ns/action")
}

// fleetBenchRow is one configuration of the throughput harness; the set
// is serialised to BENCH_fleet.json so CI can track the perf trajectory.
// NumCPU and Gomaxprocs pin the row to the host shape that produced it:
// a flat worker-sweep curve on a 1-CPU CI runner is expected, the same
// curve with num_cpu 8 is a scaling regression.
type fleetBenchRow struct {
	Name            string  `json:"name"`
	Streams         int     `json:"streams"`
	Workers         int     `json:"workers"` // 0 = serial loop, no pool
	BatchCycles     int     `json:"batch_cycles"`
	Cycles          int     `json:"cycles"`
	NumCPU          int     `json:"num_cpu"`
	Gomaxprocs      int     `json:"gomaxprocs"`
	ActionsPerOp    int     `json:"actions_per_op"`
	NsPerAction     float64 `json:"ns_per_action"`
	AllocsPerAction float64 `json:"allocs_per_action"`
	// Open-system rows additionally record the arrival process and
	// admission policy that shaped the run; closed rows omit them.
	Arrivals string `json:"arrivals,omitempty"`
	Admit    string `json:"admit,omitempty"`
	// Cluster rows additionally record the scale-out width and routing
	// policy; single-engine rows omit them. Workers is per-instance for
	// these rows.
	Instances int    `json:"instances,omitempty"`
	Route     string `json:"route,omitempty"`
}

// fleetBenchBatch reads the batch size under test from
// FLEET_BENCH_BATCH (CI sweeps {1, 32}); unset selects the scheduler
// default.
func fleetBenchBatch(b *testing.B) int {
	env := os.Getenv("FLEET_BENCH_BATCH")
	if env == "" {
		return fleet.DefaultBatchCycles
	}
	batch, err := strconv.Atoi(env)
	if err != nil || batch <= 0 {
		b.Fatalf("FLEET_BENCH_BATCH=%q: want a positive integer", env)
	}
	return batch
}

// fleetBenchFile keeps the default-batch results in the canonical
// tracked file; swept batches land in their own artifacts.
func fleetBenchFile(batch int) string {
	if batch == fleet.DefaultBatchCycles {
		return "BENCH_fleet.json"
	}
	return fmt.Sprintf("BENCH_fleet_batch%d.json", batch)
}

// E11 — fleet throughput: the paper-encoder fleet through the
// zero-retention stats path, serially and on the engine's worker pool
// at 1/2/4/8/16 workers. Each sub-benchmark reports ns/action and
// allocs/action (stream setup included, so the steady-state figure is
// bounded by BenchmarkFleetStep) and the harness writes the set — host
// shape and batch size included — to BENCH_fleet.json. The
// serial-uncached row runs the table-probing manager with the
// regions.DecisionPlan bypassed, so the plan cache's contribution is
// the serial-uncached → serial delta, separate from the scheduler's.
// NB: single-core hosts only show scheduling overhead across worker
// counts.
func BenchmarkFleetThroughput(b *testing.B) {
	s := experiment.Paper(1)
	s.Cycles = 2
	// 32 streams: enough population that a 16-worker sweep measures
	// scaling, not the EffectiveWorkers cap (8 streams made every row
	// beyond workers=8 a duplicate).
	const streams = 32
	batch := fleetBenchBatch(b)
	s.Relaxed().Decide(0, 0) // build the shared decision plan outside the timed regions
	actionsPerOp := streams * s.Cycles * s.Sys.NumActions()
	var order []string
	byName := map[string]fleetBenchRow{}

	// batchUsed is 0 for the serial rows: they never enter the
	// scheduler, so labelling them with the swept batch size would make
	// identical configurations look different across artifacts.
	measure := func(name string, workers, batchUsed int, run func() error) {
		b.Run(name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			total := float64(b.N) * float64(actionsPerOp)
			row := fleetBenchRow{
				Name:            name,
				Streams:         streams,
				Workers:         workers,
				BatchCycles:     batchUsed,
				Cycles:          s.Cycles,
				NumCPU:          runtime.NumCPU(),
				Gomaxprocs:      runtime.GOMAXPROCS(0),
				ActionsPerOp:    actionsPerOp,
				NsPerAction:     float64(elapsed.Nanoseconds()) / total,
				AllocsPerAction: float64(after.Mallocs-before.Mallocs) / total,
			}
			b.ReportMetric(row.NsPerAction, "ns/action")
			b.ReportMetric(row.AllocsPerAction, "allocs/action")
			// The harness re-invokes sub-benchmarks while calibrating
			// b.N; keep only the final (largest-N) run per config.
			if _, seen := byName[name]; !seen {
				order = append(order, name)
			}
			byName[name] = row
		})
	}

	serialLoop := func(mk func() ([]fleet.Stream, error)) func() error {
		return func() error {
			strs, err := mk()
			if err != nil {
				return err
			}
			for k := range strs {
				st := strs[k]
				st.Runner.Sink = sim.NewStatsSink(st.Runner.Sys.NumLevels())
				if _, err := st.Runner.Run(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	measure("serial", 0, 0, serialLoop(func() ([]fleet.Stream, error) { return s.FleetStreams(1, streams) }))
	measure("serial-uncached", 0, 0, serialLoop(func() ([]fleet.Stream, error) { return s.FleetStreamsUncached(1, streams) }))
	for _, w := range []int{1, 2, 4, 8, 16} {
		w := w
		measure(fmt.Sprintf("fleet-workers=%d", w), w, batch, func() error {
			strs, err := s.FleetStreams(1, streams)
			if err != nil {
				return err
			}
			res, err := fleet.RunStats(fleet.Config{Streams: strs, Workers: w, BatchCycles: batch})
			if err != nil {
				return err
			}
			return res.Err()
		})
	}

	if len(order) == 0 {
		return // sub-benchmark filter excluded everything
	}
	rows := make([]fleetBenchRow, 0, len(order))
	for _, name := range order {
		rows = append(rows, byName[name])
	}
	mergeFleetBenchRows(b, fleetBenchFile(batch), rows)
}

// E13 — routed scale-out throughput: the large open workload (64
// streams, dense Poisson arrivals, admit-all — the same configuration
// as the open-large rows) spread across M engine instances by the
// round-robin router, each instance running its own worker. The total
// arrival rate is fixed, so the sweep measures how throughput scales
// with cluster width at constant offered load: flat on a single-core
// host (the router plus M instances time-slice one CPU), dropping
// ns/action with cores on a real runner — benchguard's speedup gate in
// the multi-core CI job asserts instances=4 beats instances=1 there.
// Round-robin is the stateless policy, so the instance pipelines never
// synchronize and the rows isolate scale-out cost from routing-state
// barriers. Every iteration is a whole run, so the rows include the
// run's own slab allocation, which the report's allocs/action shows.
func BenchmarkFleetCluster(b *testing.B) {
	batch := fleetBenchBatch(b)
	large := experiment.Paper(1)
	large.Cycles = 4
	large.Relaxed().Decide(0, 0) // build the shared decision plan outside the timed region
	const streams = 64
	proc := arrivals.Poisson{MeanGap: large.Period / 8, Seed: 11}
	times, err := proc.Times(streams)
	if err != nil {
		b.Fatal(err)
	}
	adm := fleet.AdmitAll{}
	actionsPerOp := streams * large.Cycles * large.Sys.NumActions()

	var order []string
	byName := map[string]fleetBenchRow{}
	for _, m := range []int{1, 2, 4, 8} {
		m := m
		name := fmt.Sprintf("cluster-instances=%d", m)
		b.Run(name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			for i := 0; i < b.N; i++ {
				strs, err := large.FleetStreams(1, streams)
				if err != nil {
					b.Fatal(err)
				}
				cres, err := cluster.Run(cluster.Config{
					Streams:     strs,
					Arrivals:    times,
					Instances:   m,
					Route:       cluster.RoundRobin{},
					Admit:       adm,
					Workers:     1,
					BatchCycles: batch,
					Seed:        1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := cres.FleetResult().Err(); err != nil {
					b.Fatal(err)
				}
				admitted := 0
				for _, inst := range cres.Instances {
					admitted += inst.Admitted
				}
				if admitted != streams {
					b.Fatalf("admitted %d of %d streams", admitted, streams)
				}
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			total := float64(b.N) * float64(actionsPerOp)
			row := fleetBenchRow{
				Name:            name,
				Streams:         streams,
				Workers:         1,
				BatchCycles:     batch,
				Cycles:          large.Cycles,
				NumCPU:          runtime.NumCPU(),
				Gomaxprocs:      runtime.GOMAXPROCS(0),
				ActionsPerOp:    actionsPerOp,
				NsPerAction:     float64(elapsed.Nanoseconds()) / total,
				AllocsPerAction: float64(after.Mallocs-before.Mallocs) / total,
				Arrivals:        proc.Name(),
				Admit:           adm.Name(),
				Instances:       m,
				Route:           cluster.RoundRobin{}.Name(),
			}
			b.ReportMetric(row.NsPerAction, "ns/action")
			b.ReportMetric(row.AllocsPerAction, "allocs/action")
			if _, seen := byName[name]; !seen {
				order = append(order, name)
			}
			byName[name] = row
		})
	}

	if len(order) == 0 {
		return // sub-benchmark filter excluded everything
	}
	rows := make([]fleetBenchRow, 0, len(order))
	for _, name := range order {
		rows = append(rows, byName[name])
	}
	mergeFleetBenchRows(b, fleetBenchFile(batch), rows)
}

// mergeFleetBenchRows folds rows into the artifact file without
// clobbering rows other benchmarks wrote: existing rows with the same
// names are replaced, everything else is preserved in order. This is
// how the closed and open row families coexist in BENCH_fleet.json
// whichever benchmark runs first (or alone, as in the CI smoke steps).
func mergeFleetBenchRows(b *testing.B, file string, rows []fleetBenchRow) {
	b.Helper()
	replaced := map[string]bool{}
	for _, r := range rows {
		replaced[r.Name] = true
	}
	var all []fleetBenchRow
	if raw, err := os.ReadFile(file); err == nil {
		var prev []fleetBenchRow
		if err := json.Unmarshal(raw, &prev); err != nil {
			b.Fatalf("%s exists but does not parse: %v", file, err)
		}
		for _, r := range prev {
			if !replaced[r.Name] {
				all = append(all, r)
			}
		}
	}
	all = append(all, rows...)
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(file, append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("merged %d rows into %s (%d total)", len(rows), file, len(all))
}

// E12 — open-system throughput: the paper-encoder fleet arriving as a
// Poisson process under cap-K admission, through the zero-retention
// continuous engine. One op is the whole open run (arrival ordering,
// admission decisions, continuous injection on the worker pool,
// lifecycle bookkeeping included), normalised to ns/action and
// allocs/action over the actions the admitted streams execute —
// directly comparable with the closed rows, so the artifact tracks the
// open engine's overhead as its own row family in BENCH_fleet.json.
//
// Two row families share the harness. The small family (8 streams,
// sparse Poisson arrivals, cap-4) is the engine-overhead row set the
// baseline tracks: the serial spec as the reference plus the wave-free
// engine at workers 1, 2 and 4. The
// large family (64 streams, dense arrivals, admit-all, workers swept
// 1/2/4/8/16) is the multi-core scaling matrix: enough concurrent
// in-flight streams that the workers and the frontier's completion
// hand-off have parallelism to expose — flat on a single-core host,
// dropping ns/action with cores on a real runner, which is exactly
// what benchguard's speedup assertion checks in CI. Every iteration is
// a whole run, so the rows include the run's own slab allocation.
func BenchmarkFleetOpen(b *testing.B) {
	batch := fleetBenchBatch(b)
	var order []string
	byName := map[string]fleetBenchRow{}

	measure := func(name string, s *experiment.Setup, streams, workers int,
		times []core.Time, procName string, adm fleet.Admitter,
		run func(cfg fleet.OpenConfig) (*fleet.OpenResult, error)) {
		b.Run(name, func(b *testing.B) {
			actionsPerOp := streams * s.Cycles * s.Sys.NumActions()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			for i := 0; i < b.N; i++ {
				strs, err := s.FleetStreams(1, streams)
				if err != nil {
					b.Fatal(err)
				}
				res, err := run(fleet.OpenConfig{
					Streams:     strs,
					Arrivals:    times,
					Admit:       adm,
					Workers:     workers,
					BatchCycles: batch,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := res.Err(); err != nil {
					b.Fatal(err)
				}
				if res.Admitted != streams {
					b.Fatalf("admitted %d of %d streams", res.Admitted, streams)
				}
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			total := float64(b.N) * float64(actionsPerOp)
			row := fleetBenchRow{
				Name:            name,
				Streams:         streams,
				Workers:         workers,
				BatchCycles:     batch,
				Cycles:          s.Cycles,
				NumCPU:          runtime.NumCPU(),
				Gomaxprocs:      runtime.GOMAXPROCS(0),
				ActionsPerOp:    actionsPerOp,
				NsPerAction:     float64(elapsed.Nanoseconds()) / total,
				AllocsPerAction: float64(after.Mallocs-before.Mallocs) / total,
				Arrivals:        procName,
				Admit:           adm.Name(),
			}
			b.ReportMetric(row.NsPerAction, "ns/action")
			b.ReportMetric(row.AllocsPerAction, "allocs/action")
			if _, seen := byName[name]; !seen {
				order = append(order, name)
			}
			byName[name] = row
		})
	}

	// Small family: sparse arrivals, 8 streams — the engine-overhead rows.
	small := experiment.Paper(1)
	small.Cycles = 2
	small.Relaxed().Decide(0, 0) // build the shared decision plan outside the timed region
	const smallStreams = 8
	smallProc := arrivals.Poisson{MeanGap: small.Period, Seed: 7}
	smallTimes, err := smallProc.Times(smallStreams)
	if err != nil {
		b.Fatal(err)
	}
	smallAdm := fleet.CapK{K: 4, Queue: -1} // unbounded queue: every stream runs
	measure("open-serial-spec", small, smallStreams, 2, smallTimes, smallProc.Name(), smallAdm, fleet.OpenRunStatsSerial)
	for _, w := range []int{1, 2, 4} {
		measure(fmt.Sprintf("open-poisson-cap4-workers=%d", w), small, smallStreams, w,
			smallTimes, smallProc.Name(), smallAdm, fleet.OpenRunStats)
	}

	// Obs twins: the same configurations with the metric hooks enabled —
	// the rows benchguard's -overhead gate compares against their
	// disabled twins above, keeping the allocation-free instrument layer
	// effectively free on the hot path. One instrument bundle serves
	// every iteration, exactly as a long-running daemon would hold it.
	obsMet := obs.NewFleetMetrics(obs.NewRegistry("bench"))
	for _, w := range []int{1, 4} {
		measure(fmt.Sprintf("open-poisson-cap4-obs-workers=%d", w), small, smallStreams, w,
			smallTimes, smallProc.Name(), smallAdm,
			func(cfg fleet.OpenConfig) (*fleet.OpenResult, error) {
				cfg.Obs = obsMet
				return fleet.OpenRunStats(cfg)
			})
	}

	// Large family: dense arrivals, 64 streams, admit-all — the
	// multi-core scaling matrix. MeanGap of period/8 keeps tens of
	// streams in flight at once (the departure bound admitted +
	// (Cycles−1)·period clears dense arrivals easily), so worker
	// parallelism is the dominant term, not admission serialization.
	large := experiment.Paper(1)
	large.Cycles = 4
	large.Relaxed().Decide(0, 0)
	const largeStreams = 64
	largeProc := arrivals.Poisson{MeanGap: large.Period / 8, Seed: 11}
	largeTimes, err := largeProc.Times(largeStreams)
	if err != nil {
		b.Fatal(err)
	}
	largeAdm := fleet.AdmitAll{}
	for _, w := range []int{1, 2, 4, 8, 16} {
		measure(fmt.Sprintf("open-large-workers=%d", w), large, largeStreams, w,
			largeTimes, largeProc.Name(), largeAdm, fleet.OpenRunStats)
	}

	if len(order) == 0 {
		return // sub-benchmark filter excluded everything
	}
	rows := make([]fleetBenchRow, 0, len(order))
	for _, name := range order {
		rows = append(rows, byName[name])
	}
	mergeFleetBenchRows(b, fleetBenchFile(batch), rows)
}
