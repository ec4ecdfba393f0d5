package cluster

import (
	"reflect"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/regions"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// testStreams builds a skewed multi-workload population: stream lengths
// vary by ~an order of magnitude, a sprinkling of work-conserving
// streams forces the frontier's lock-step departure bound, and (when n
// is large enough) one invalid stream exercises the bind-failure path
// through the router.
func testStreams(t *testing.T, n int, baseSeed uint64) []fleet.Stream {
	t.Helper()
	cat, err := workloads.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"audio-encoder", "sdr-pipeline", "video-decoder"}
	type compiled struct {
		sys *core.System
		tab *regions.TDTable
	}
	byName := map[string]compiled{}
	for _, name := range names {
		sys := cat[name]
		byName[name] = compiled{sys: sys, tab: regions.BuildTDTable(sys)}
	}
	streams := make([]fleet.Stream, n)
	for k := 0; k < n; k++ {
		c := byName[names[k%len(names)]]
		streams[k] = fleet.Stream{
			Name: names[k%len(names)],
			Runner: sim.Runner{
				Sys:      c.sys,
				Mgr:      regions.NewSymbolicManager(c.tab),
				Exec:     sim.Content{Sys: c.sys, NoiseAmp: 0.3, Seed: fleet.DeriveSeed(baseSeed, k)},
				Overhead: sim.IPodOverhead,
				Cycles:   1 + (k*5)%9,
			},
		}
		if k%6 == 5 {
			streams[k].Runner.WorkConserving = true
		}
	}
	if n > 13 {
		streams[13].Runner.Cycles = 0 // invalid: fails at bind
	}
	return streams
}

// clusterProcesses returns the arrival models the equivalence property
// sweeps: deterministic lock-step (maximal simultaneity), Poisson, and
// bursty on/off phases.
func clusterProcesses(t *testing.T, n int) map[string][]core.Time {
	t.Helper()
	period := 20 * core.Millisecond
	procs := map[string]arrivals.Process{
		"fixed":   arrivals.Fixed{Start: core.Millisecond, Period: period / 2},
		"poisson": arrivals.Poisson{MeanGap: period, Seed: 11},
		"bursty":  arrivals.Bursty{GapOn: period / 4, MeanOn: period, MeanOff: 3 * period, Seed: 12},
	}
	out := map[string][]core.Time{}
	for name, p := range procs {
		times, err := p.Times(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = times
	}
	return out
}

// compareCluster asserts two cluster results are byte-identical in
// everything the router and engines guarantee: the routing record, the
// merged global observations, and every instance's full open result.
func compareCluster(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Policy != got.Policy {
		t.Fatalf("%s: policy %q vs %q", label, want.Policy, got.Policy)
	}
	if !reflect.DeepEqual(want.Assign, got.Assign) {
		t.Fatalf("%s: routing decisions diverged", label)
	}
	if !reflect.DeepEqual(want.Local, got.Local) || !reflect.DeepEqual(want.Routed, got.Routed) {
		t.Fatalf("%s: routing bookkeeping diverged", label)
	}
	if !reflect.DeepEqual(want.Global, got.Global) {
		t.Fatalf("%s: merged global observations diverged", label)
	}
	for i := range want.Instances {
		w, g := want.Instances[i], got.Instances[i]
		if !reflect.DeepEqual(w.OpenObservations, g.OpenObservations) {
			t.Fatalf("%s: instance %d lifecycles or backlog diverged", label, i)
		}
		if w.Admitted != g.Admitted || w.Delayed != g.Delayed || w.Shed != g.Shed {
			t.Fatalf("%s: instance %d admission counts diverged", label, i)
		}
		if !reflect.DeepEqual(w.Streams, g.Streams) {
			t.Fatalf("%s: instance %d stream results diverged", label, i)
		}
	}
}

// TestClusterSingleInstancePassThrough pins the cluster's ground truth:
// M = 1 with the pass-through round-robin router is byte-for-byte the
// plain batch open engine — global lifecycles, backlog accounting,
// admission counts and per-stream results all identical.
func TestClusterSingleInstancePassThrough(t *testing.T) {
	streams := testStreams(t, 24, 29)
	adm := fleet.CapK{K: 3, Queue: -1}
	for model, times := range clusterProcesses(t, len(streams)) {
		batch, err := fleet.OpenRunStats(fleet.OpenConfig{Streams: streams, Arrivals: times, Admit: adm, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		for _, run := range []struct {
			name string
			fn   func(Config) (*Result, error)
		}{{"serial", RunSerial}, {"concurrent", Run}} {
			got, err := run.fn(Config{Streams: streams, Arrivals: times, Instances: 1, Admit: adm, Workers: 2})
			if err != nil {
				t.Fatalf("%s/%s: %v", model, run.name, err)
			}
			inst := got.Instances[0]
			if !reflect.DeepEqual(batch.OpenObservations, inst.OpenObservations) {
				t.Fatalf("%s/%s: instance observations diverged from the batch engine", model, run.name)
			}
			if !reflect.DeepEqual(batch.OpenObservations, got.Global) {
				t.Fatalf("%s/%s: merged global observations diverged from the batch engine", model, run.name)
			}
			if batch.Admitted != inst.Admitted || batch.Delayed != inst.Delayed || batch.Shed != inst.Shed {
				t.Fatalf("%s/%s: admission counts diverged", model, run.name)
			}
			// The instance's streams are in fed (instant, index) order;
			// the routing record maps each global index onto them.
			for k := range streams {
				if got.Assign[k] != 0 {
					t.Fatalf("%s/%s: pass-through routed stream %d to instance %d", model, run.name, k, got.Assign[k])
				}
				if !reflect.DeepEqual(batch.Streams[k], inst.Streams[got.Local[k]]) {
					t.Fatalf("%s/%s: stream %d result diverged from the batch engine", model, run.name, k)
				}
			}
		}
	}
}

// TestClusterRunMatchesSerial is the cluster's acceptance property: the
// concurrent engine (instance goroutines, pipelined command queues,
// overlapped drains) reproduces the single-goroutine serial spec byte
// for byte — at every (workers, batch) shape, under every
// routing policy, for every arrival model. Since the reference is
// recomputed per (model, policy) and every shape must match it, this
// also pins shape-invariance of the routing decisions themselves.
func TestClusterRunMatchesSerial(t *testing.T) {
	streams := testStreams(t, 36, 31)
	times := clusterProcesses(t, len(streams))
	policies := []Policy{RoundRobin{}, LeastBacklog{}, UtilizationWeighted{}, Affinity{}}
	shapes := []struct{ workers, batch int }{{1, 0}, {2, 3}, {4, 32}}
	adm := fleet.CapK{K: 2, Queue: 3}
	for model, arr := range times {
		for _, pol := range policies {
			ref, err := RunSerial(Config{
				Streams: streams, Arrivals: arr, Instances: 3,
				Route: pol, Admit: adm, Workers: 1, Seed: 77,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", model, pol.Name(), err)
			}
			for _, shape := range shapes {
				got, err := Run(Config{
					Streams: streams, Arrivals: arr, Instances: 3,
					Route: pol, Admit: adm, Seed: 77,
					Workers: shape.workers, BatchCycles: shape.batch,
				})
				if err != nil {
					t.Fatalf("%s/%s: %v", model, pol.Name(), err)
				}
				compareCluster(t, model+"/"+pol.Name(), ref, got)
			}
		}
	}
}

// TestClusterRoundRobinSpread pins the pass-through policy's shape: the
// routed counts differ by at most one, so the fairness index is ~1.
func TestClusterRoundRobinSpread(t *testing.T) {
	streams := testStreams(t, 26, 5)
	times, err := arrivals.Poisson{MeanGap: 10 * core.Millisecond, Seed: 3}.Times(len(streams))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Streams: streams, Arrivals: times, Instances: 4})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := res.Routed[0], res.Routed[0]
	for _, c := range res.Routed {
		lo, hi = min(lo, c), max(hi, c)
	}
	if hi-lo > 1 {
		t.Fatalf("round-robin routed counts %v spread by more than one", res.Routed)
	}
	if s := res.Summarize(); s.Fairness < 0.99 {
		t.Fatalf("round-robin fairness %.4f, want ≈ 1", s.Fairness)
	}
}

// TestClusterIdleInstances covers M > population: never-routed
// instances are aborted, get empty results, and the summary still
// stands up (fairness reflects the idle capacity).
func TestClusterIdleInstances(t *testing.T) {
	streams := testStreams(t, 3, 9)
	times := []core.Time{0, core.Millisecond, core.Millisecond}
	for _, run := range []struct {
		name string
		fn   func(Config) (*Result, error)
	}{{"serial", RunSerial}, {"concurrent", Run}} {
		res, err := run.fn(Config{Streams: streams, Arrivals: times, Instances: 8})
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		for i := 3; i < 8; i++ {
			if res.Routed[i] != 0 || len(res.Instances[i].Lifecycles) != 0 {
				t.Fatalf("%s: idle instance %d has traffic", run.name, i)
			}
		}
		s := res.Summarize()
		if s.Global.Streams != 3 || s.Fairness >= 0.5 {
			t.Fatalf("%s: summary over idle cluster: streams %d fairness %.3f", run.name, s.Global.Streams, s.Fairness)
		}
	}
}

// badPolicy routes out of range to exercise the router's abort path.
type badPolicy struct{}

func (badPolicy) Name() string          { return "bad" }
func (badPolicy) NeedsState() bool      { return false }
func (badPolicy) Route(d *Decision) int { return len(d.Pending) }

// TestClusterConfigErrors exercises validation and the abort path of
// both drivers; the goroutine leak detector (-race + test exit) backs
// the claim that aborts tear every instance down.
func TestClusterConfigErrors(t *testing.T) {
	streams := testStreams(t, 4, 1)
	times := []core.Time{0, 1, 2, 3}
	bad := []Config{
		{Streams: streams, Arrivals: times, Instances: 0},
		{Streams: nil, Arrivals: nil, Instances: 2},
		{Streams: streams, Arrivals: times[:2], Instances: 2},
		{Streams: streams, Arrivals: []core.Time{0, -1, 2, 3}, Instances: 2},
		{Streams: streams, Arrivals: times, Instances: 2, Route: badPolicy{}},
	}
	for i, cfg := range bad {
		if _, err := RunSerial(cfg); err == nil {
			t.Errorf("serial config %d: no error", i)
		}
		if _, err := Run(cfg); err == nil {
			t.Errorf("concurrent config %d: no error", i)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
	for _, spec := range []string{"", "round-robin", "least-backlog", "weighted", "affinity"} {
		if _, err := ParsePolicy(spec); err != nil {
			t.Errorf("ParsePolicy(%q): %v", spec, err)
		}
	}
}

// TestClusterSteadyStateAllocationFree extends the open engine's
// zero-allocation contract across the router. A serial cluster run at
// workers = 1 allocates its own working memory — the routing record,
// the instances' slabs, which double as they fill — but nothing per
// arrival: arrival ordering, watermark synchronization, state reads,
// policy draws, routing, feeds, drains and the global observation merge
// add no allocation per stream. Quadrupling the population from 1,024
// to 4,096 streams may therefore add allocations for the doublings
// only, far fewer than the 3,072 more arrivals. The concurrent driver
// costs O(instances) allocations per run for its goroutines and queues,
// which the benchmark rows bound.
func TestClusterSteadyStateAllocationFree(t *testing.T) {
	const small, large = 1024, 4096
	streams := testStreams(t, large, 47)
	for k := range streams {
		streams[k].Runner.Cycles = 1 // the property is per arrival, not per cycle
	}
	times, err := arrivals.Poisson{MeanGap: 15 * core.Millisecond, Seed: 9}.Times(len(streams))
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{RoundRobin{}, LeastBacklog{}, UtilizationWeighted{}} {
		allocs := func(n int) float64 {
			cfg := Config{
				Streams: streams[:n], Arrivals: times[:n], Instances: 3,
				Route: pol, Admit: fleet.CapK{K: 2, Queue: -1},
				Workers: 1, Seed: 13,
			}
			return testing.AllocsPerRun(1, func() {
				res, err := RunSerial(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Global.Lifecycles) != n {
					t.Fatalf("merged %d lifecycles of %d", len(res.Global.Lifecycles), n)
				}
			})
		}
		lo, hi := allocs(small), allocs(large)
		if grown := hi - lo; grown >= (large-small)/8 {
			t.Fatalf("%s: %d more streams cost %.0f more allocations (%.0f against %.0f), want fewer than %d",
				pol.Name(), large-small, grown, hi, lo, (large-small)/8)
		}
	}
}
