// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation (§4) plus the ablations listed in DESIGN.md §4.
// Each benchmark both measures the Go implementation (ns/op of the
// mechanism under test) and attaches the reproduced experimental
// quantities as custom metrics (overhead percentages, average qualities,
// table sizes), so `go test -bench=. -benchmem` prints the full
// reproduction alongside the machine numbers. EXPERIMENTS.md records a
// reference run against the paper's values.
package repro

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/linconstr"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/profiler"
	"repro/internal/regions"
	"repro/internal/sim"
	"repro/internal/speed"
	"repro/internal/workloads"
)

// E8 — per-decision cost of the three §4.1 Quality Managers on the
// paper-sized system (1,189 actions, 7 levels). The paper's overhead
// ranking (numeric ≫ symbolic > relaxed-per-action) comes straight from
// these costs.
func BenchmarkNumericDecision(b *testing.B) {
	s := experiment.Paper(1)
	m := s.Numeric()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decide(i%s.Sys.NumActions(), 500*core.Millisecond)
	}
}

func BenchmarkSymbolicDecision(b *testing.B) {
	s := experiment.Paper(1)
	m := s.Symbolic()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decide(i%s.Sys.NumActions(), 500*core.Millisecond)
	}
}

func BenchmarkRelaxedDecision(b *testing.B) {
	s := experiment.Paper(1)
	m := s.Relaxed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decide(i%s.Sys.NumActions(), 500*core.Millisecond)
	}
}

// E2/Fig 4 — quality-region table construction (the Matlab prototype's
// job, done natively). Compares the O(n·|Q|) builder per op.
func BenchmarkFig4QualityRegions(b *testing.B) {
	sys := profiler.IPodSystem()
	b.ResetTimer()
	var tab *regions.TDTable
	for i := 0; i < b.N; i++ {
		tab = regions.BuildTDTable(sys)
	}
	b.ReportMetric(float64(tab.NumEntries()), "integers")
	b.ReportMetric(float64(tab.MemoryBytes()), "bytes")
}

// E3/Figs 5–6 — control-relaxation table construction for the paper's
// ρ = {1,10,20,30,40,50}.
func BenchmarkFig6RelaxRegions(b *testing.B) {
	sys := profiler.IPodSystem()
	tab := regions.BuildTDTable(sys)
	b.ResetTimer()
	var rt *regions.RelaxTables
	for i := 0; i < b.N; i++ {
		rt = regions.MustBuildRelaxTables(tab, experiment.PaperRho)
	}
	b.ReportMetric(float64(rt.NumEntries()), "integers")
	b.ReportMetric(float64(rt.MemoryBytes()), "bytes")
}

// E4 — §4.1 memory accounting: 8,323 and 99,876 integers.
func BenchmarkTableMemory(b *testing.B) {
	sys := profiler.IPodSystem()
	b.ReportAllocs()
	var q, r int
	for i := 0; i < b.N; i++ {
		tab := regions.BuildTDTable(sys)
		rt := regions.MustBuildRelaxTables(tab, experiment.PaperRho)
		q, r = tab.NumEntries(), rt.NumEntries()
	}
	b.ReportMetric(float64(q), "Rq_integers")
	b.ReportMetric(float64(r), "Rrq_integers")
}

// E5 — §4.2 overhead table: one sub-benchmark per manager runs the full
// 29-frame experiment and reports the management overhead percentage
// (paper: 5.7 / 1.9 / <1.1).
func BenchmarkOverheadTable(b *testing.B) {
	s := experiment.Paper(1)
	for _, m := range s.Managers() {
		m := m
		b.Run(m.Name(), func(b *testing.B) {
			var tr *sim.Trace
			for i := 0; i < b.N; i++ {
				tr = s.Run(m)
			}
			b.ReportMetric(100*tr.OverheadFraction(), "overhead_pct")
			b.ReportMetric(float64(tr.Misses), "misses")
		})
	}
}

// E6/Fig 7 — average quality per frame across the three managers.
func BenchmarkFig7AverageQuality(b *testing.B) {
	s := experiment.Paper(1)
	for _, m := range s.Managers() {
		m := m
		b.Run(m.Name(), func(b *testing.B) {
			var tr *sim.Trace
			for i := 0; i < b.N; i++ {
				tr = s.Run(m)
			}
			sum := metrics.Summarize(tr)
			avg := metrics.AvgQualityPerCycle(tr)
			b.ReportMetric(sum.AvgQuality, "avg_quality")
			b.ReportMetric(avg[0], "frame0_quality")
			b.ReportMetric(avg[14], "frame14_quality")
		})
	}
}

// E7/Fig 8 — per-action overhead of the symbolic manager with and
// without control relaxation over one frame, plus the adaptive-band
// statistics (paper: r = 40 / 1 / 10 bands).
func BenchmarkFig8OverheadSeries(b *testing.B) {
	s := experiment.Paper(1)
	for _, v := range []struct {
		name string
		mgr  core.Manager
	}{
		{"no-relaxation", s.Symbolic()},
		{"control-relaxation", s.Relaxed()},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var tr *sim.Trace
			for i := 0; i < b.N; i++ {
				tr = s.RunCycles(v.mgr, 1)
			}
			pts := metrics.OverheadSeries(tr, 0, experiment.Fig8From, experiment.Fig8To)
			var total core.Time
			for _, p := range pts {
				total += p.Overhead
			}
			b.ReportMetric(total.Millis()/float64(len(pts)), "mean_overhead_ms")
			bands := metrics.Bands(tr, 0)
			maxR := 0
			for _, bd := range bands {
				if bd.Steps > maxR {
					maxR = bd.Steps
				}
			}
			b.ReportMetric(float64(len(bands)), "bands")
			b.ReportMetric(float64(maxR), "max_r")
		})
	}
}

// E9 — fleet scaling: 16 independent paper-encoder streams on the
// concurrent multi-stream engine, swept over worker-pool sizes. The
// per-stream traces are byte-identical across the sweep (the engine's
// determinism guarantee), so ns/op isolates pure scheduling speedup;
// near-linear scaling to the core count is the expected shape, and the
// fleet-wide miss rate rides along as a metric.
func BenchmarkFleet16Streams(b *testing.B) {
	s := experiment.Paper(1)
	s.Cycles = 4
	const streams = 16
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var res *fleet.Result
			for i := 0; i < b.N; i++ {
				pop, err := s.FleetStreams(1, streams)
				if err != nil {
					b.Fatal(err)
				}
				if res, err = fleet.RunStats(fleet.Config{Streams: pop, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
			if err := res.Err(); err != nil {
				b.Fatal(err)
			}
			traces := make([]*sim.Trace, len(res.Streams))
			stats := make([]*sim.StatsSink, len(res.Streams))
			for k, sr := range res.Streams {
				traces[k], stats[k] = sr.Trace, sr.Stats
			}
			fs := metrics.AggregateStats(traces, stats)
			b.ReportMetric(100*fs.MissRate, "missrate_pct")
			b.ReportMetric(fs.AvgQuality, "avg_quality")
		})
	}
}

// E1/Fig 3 — speed-diagram evaluation cost and the ideal-speed spread of
// the encoder system.
func BenchmarkFig3SpeedDiagram(b *testing.B) {
	sys := profiler.IPodSystem()
	d, err := speed.NewFinalDiagram(sys)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := i % sys.NumActions()
		d.OptimalSpeed(st, 400*core.Millisecond, core.Level(i%7))
	}
	b.ReportMetric(d.IdealSpeed(0), "v_idl_qmin")
	b.ReportMetric(d.IdealSpeed(6), "v_idl_qmax")
}

// A1 — ρ-set ablation: relaxation-step sets trade table memory against
// decision count.
func BenchmarkAblationRhoSweep(b *testing.B) {
	s := experiment.Paper(1)
	sets := []struct {
		name string
		rho  []int
	}{
		{"rho=1", []int{1}},
		{"rho=1,5", []int{1, 5}},
		{"rho=paper", experiment.PaperRho},
		{"rho=dense", []int{1, 2, 5, 10, 20, 40, 80, 160}},
	}
	for _, set := range sets {
		set := set
		b.Run(set.name, func(b *testing.B) {
			rt := regions.MustBuildRelaxTables(s.Tab, set.rho)
			m := regions.NewRelaxedManager(rt)
			var tr *sim.Trace
			for i := 0; i < b.N; i++ {
				tr = s.Run(m)
			}
			b.ReportMetric(float64(tr.Decisions), "decisions")
			b.ReportMetric(100*tr.OverheadFraction(), "overhead_pct")
			b.ReportMetric(float64(rt.MemoryBytes()), "table_bytes")
		})
	}
}

// A2 — policy ablation: the safe policy (Csf) against the mixed policy
// (CD); the mixed policy buys smoothness (§2.2.2).
func BenchmarkAblationPolicies(b *testing.B) {
	s := experiment.Paper(1)
	for _, v := range []struct {
		name string
		mgr  core.Manager
	}{
		{"safe", core.NewSafeManager(s.Sys)},
		{"mixed", s.Numeric()},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var tr *sim.Trace
			for i := 0; i < b.N; i++ {
				tr = s.Run(v.mgr)
			}
			sum := metrics.Summarize(tr)
			b.ReportMetric(sum.Smooth.MeanAbsDelta, "mean_abs_dq")
			b.ReportMetric(float64(sum.Smooth.Switches), "switches")
			b.ReportMetric(sum.AvgQuality, "avg_quality")
			b.ReportMetric(float64(sum.Misses), "misses")
		})
	}
}

// A3 — related-work baselines (§1): misses and quality against the
// managed run under identical content.
func BenchmarkAblationBaselines(b *testing.B) {
	s := experiment.Paper(1)
	mk := []struct {
		name string
		mgr  func() core.Manager
	}{
		{"relaxed-qm", func() core.Manager { return s.Relaxed() }},
		{"fixed-qmax", func() core.Manager { return core.FixedManager{Level: s.Sys.QMax()} }},
		{"skip-over", func() core.Manager { return baseline.NewSkipManager(s.Sys, s.Sys.QMax()) }},
		{"pid", func() core.Manager { return baseline.NewPIDManager(s.Sys, 4, 0.5, 0.05, 0.1) }},
	}
	for _, v := range mk {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var tr *sim.Trace
			for i := 0; i < b.N; i++ {
				tr = s.Run(v.mgr()) // fresh instance: PID carries state
			}
			sum := metrics.Summarize(tr)
			b.ReportMetric(float64(sum.Misses), "misses")
			b.ReportMetric(sum.AvgQuality, "avg_quality")
			b.ReportMetric(sum.Smooth.MeanAbsDelta, "mean_abs_dq")
		})
	}
}

// A6 — generality: the full manager stack on the non-encoder workloads
// (audio encoder, SDR pipeline, video decoder), reporting overhead and
// decision counts per workload under the relaxed manager.
func BenchmarkAblationWorkloads(b *testing.B) {
	cat, err := workloads.Catalog()
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 0, len(cat))
	for name := range cat {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		sys := cat[name]
		b.Run(name, func(b *testing.B) {
			tab := regions.BuildTDTable(sys)
			rt := regions.MustBuildRelaxTables(tab, []int{1, 5, 10, 25})
			mgr := regions.NewRelaxedManager(rt)
			var tr *sim.Trace
			for i := 0; i < b.N; i++ {
				tr = (&sim.Runner{Sys: sys, Mgr: mgr,
					Exec:     sim.Content{Sys: sys, NoiseAmp: 0.3, Seed: 5},
					Overhead: sim.IPodOverhead, Cycles: 10}).MustRun()
			}
			b.ReportMetric(float64(tr.Misses), "misses")
			b.ReportMetric(100*tr.OverheadFraction(), "overhead_pct")
			b.ReportMetric(float64(len(tr.Records))/float64(tr.Decisions), "mean_relax")
		})
	}
}

// A4 — conclusion extension: deadline-safe energy minimisation.
func BenchmarkExtensionPower(b *testing.B) {
	const n = 80
	work := make([]power.Workload, n)
	var avTotal core.Time
	for i := range work {
		av := core.Time(150+50*(i%4)) * core.Microsecond
		work[i] = power.Workload{Av: av, WC: av * 7 / 5, Deadline: core.TimeInf}
		avTotal += av
	}
	work[n-1].Deadline = avTotal * 11 / 5
	sys, fs, err := power.System(work, []float64{1.0, 0.85, 0.7, 0.6, 0.5, 0.4})
	if err != nil {
		b.Fatal(err)
	}
	tab := regions.BuildTDTable(sys)
	mgr := regions.NewRelaxedManager(regions.MustBuildRelaxTables(tab, []int{1, 5, 10, 20}))
	run := func(m core.Manager) *sim.Trace {
		return (&sim.Runner{Sys: sys, Mgr: m, Exec: sim.Content{Sys: sys, NoiseAmp: 0.25, Seed: 11},
			Overhead: sim.FreeOverhead, Cycles: 25}).MustRun()
	}
	var ctrl, fmax *sim.Trace
	for i := 0; i < b.N; i++ {
		ctrl = run(mgr)
		fmax = run(core.FixedManager{Level: 0})
	}
	b.ReportMetric(100*power.Savings(ctrl, fmax, fs), "energy_savings_pct")
	b.ReportMetric(float64(ctrl.Misses), "misses")
}

// A5 — conclusion extension: piecewise-linear region approximation,
// memory saved vs quality lost on the encoder system.
func BenchmarkExtensionLinConstr(b *testing.B) {
	s := experiment.Paper(1)
	for _, eps := range []core.Time{100 * core.Microsecond, core.Millisecond, 10 * core.Millisecond} {
		eps := eps
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			var approx *linconstr.Table
			for i := 0; i < b.N; i++ {
				var err error
				approx, err = linconstr.Approximate(s.Tab, eps)
				if err != nil {
					b.Fatal(err)
				}
			}
			tr := (&sim.Runner{Sys: s.Sys, Mgr: linconstr.NewManager(approx), Exec: s.Exec,
				Overhead: s.Overhead, Cycles: 5, Period: s.Period}).MustRun()
			exact := (&sim.Runner{Sys: s.Sys, Mgr: s.Symbolic(), Exec: s.Exec,
				Overhead: s.Overhead, Cycles: 5, Period: s.Period}).MustRun()
			b.ReportMetric(float64(approx.MemoryBytes()), "bytes")
			b.ReportMetric(100*float64(approx.MemoryBytes())/float64(s.Tab.MemoryBytes()), "memory_pct")
			b.ReportMetric(metrics.Summarize(exact).AvgQuality-metrics.Summarize(tr).AvgQuality, "quality_loss")
			b.ReportMetric(float64(tr.Misses), "misses")
		})
	}
}
