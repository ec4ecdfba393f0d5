package main

import (
	"cmp"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/arrivals"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// cluster-mix: Poisson arrivals over the three catalog systems, routed
// by the state-reading least-backlog policy across two engine instances
// with per-instance cap-K admission. It is the one workload that
// exercises the router's per-arrival watermark barrier and the instance
// queues, and its symbolic manager decides before every action over
// three decision plans.
const (
	clusterArrivals  = 4000
	clusterInstances = 2
	clusterWorkers   = 1
	clusterMeanGap   = 38 * core.Millisecond
	clusterMinCycles = 2
	clusterMaxCycles = 6
	// clusterLimit bounds one cluster run for the watchdog: ~100× its
	// typical duration on a 2-CPU host.
	clusterLimit = 30 * time.Second
)

var (
	clusterAdmit = fleet.CapK{K: 6, Queue: 12}
	clusterNames = []string{"audio-encoder", "sdr-pipeline", "video-decoder"}
)

// clusterArrival is one generated arrival: its instant, catalog system,
// cycle count and content seed.
type clusterArrival struct {
	t      core.Time
	w      int
	cycles int
	seed   uint64
}

func clusterInputs(e *env) ([]controller.Spec, []clusterArrival, error) {
	cat, err := workloads.Catalog()
	if err != nil {
		return nil, nil, err
	}
	specs := make([]controller.Spec, len(clusterNames))
	for i, name := range clusterNames {
		specs[i] = controller.SpecFromSystem(name, cat[name], nil)
	}
	times, err := arrivals.Poisson{MeanGap: clusterMeanGap, Seed: fleet.ForSubsystem(e.seed, "perfbench/arrivals")}.Times(clusterArrivals)
	if err != nil {
		return nil, nil, err
	}
	mix := fleet.ForSubsystem(e.seed, "perfbench/mix")
	content := fleet.ForSubsystem(e.seed, "perfbench/content")
	arr := make([]clusterArrival, clusterArrivals)
	var desc []byte
	for k := range arr {
		h := sim.Mix64(mix + uint64(k))
		arr[k] = clusterArrival{
			t:      times[k],
			w:      int(h % uint64(len(clusterNames))),
			cycles: clusterMinCycles + int((h>>16)%(clusterMaxCycles-clusterMinCycles+1)),
			seed:   fleet.DeriveSeed(content, k),
		}
		desc = fmt.Appendf(desc, "%d %d %d %d\n", arr[k].t, arr[k].w, arr[k].cycles, arr[k].seed)
	}
	e.inputs = hashInputs(fmt.Appendf(nil, "%v", specs), desc)
	return specs, arr, nil
}

// clusterStreams instantiates the population: the symbolic manager of
// each arrival's compiled system.
func clusterStreams(bs []*controller.Bundle, arr []clusterArrival) ([]fleet.Stream, []core.Time) {
	streams := make([]fleet.Stream, len(arr))
	times := make([]core.Time, len(arr))
	for k, a := range arr {
		b := bs[a.w]
		sys := b.System()
		streams[k] = fleet.Stream{
			Name: clusterNames[a.w] + "-" + strconv.Itoa(k),
			Runner: sim.Runner{
				Sys:      sys,
				Mgr:      b.Symbolic(),
				Exec:     sim.Content{Sys: sys, NoiseAmp: 0.3, Seed: a.seed},
				Overhead: sim.IPodOverhead,
				Cycles:   a.cycles,
			},
		}
		times[k] = a.t
	}
	return streams, times
}

// clusterConfig is a fresh population routed as the workload routes it.
func clusterConfig(e *env, bs []*controller.Bundle, arr []clusterArrival) cluster.Config {
	streams, times := clusterStreams(bs, arr)
	return cluster.Config{
		Streams:   streams,
		Arrivals:  times,
		Instances: clusterInstances,
		Route:     cluster.LeastBacklog{},
		Admit:     clusterAdmit,
		Workers:   clusterWorkers,
		Seed:      e.seed,
	}
}

// clusterSetup compiles (or, on restart, loads) the three bundles,
// builds the population and the decision plans.
func clusterSetup(tr *tracer, e *env, specs []controller.Spec, arr []clusterArrival, restart bool) ([]*controller.Bundle, error) {
	var bs []*controller.Bundle
	var err error
	if restart {
		bs, err = loadBundles(tr, e.dir, clusterNames)
	} else {
		bs, err = compileBundles(tr, e.dir, specs)
	}
	if err != nil {
		return nil, err
	}
	clusterStreams(bs, arr)
	buildPlans(tr, bs, false)
	return bs, nil
}

func runCluster(e *env) (*outcome, error) {
	specs, arr, err := clusterInputs(e)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	var x e2e
	// setup takes one set-up sample and one restart sample. Samples are
	// taken before every measured run, so they span the run's time like
	// the measured runs do.
	setup := func() ([]*controller.Bundle, error) {
		t0 := time.Now()
		if _, err := clusterSetup(nil, e, specs, arr, false); err != nil {
			return nil, err
		}
		x.setup = append(x.setup, time.Since(t0).Seconds())
		t0 = time.Now()
		bs, err := clusterSetup(nil, e, specs, arr, true)
		x.resume = append(x.resume, time.Since(t0).Seconds())
		return bs, err
	}
	bs, err := setup()
	if err != nil {
		return nil, err
	}
	want, err := cluster.RunSerial(clusterConfig(e, bs, arr))
	if err != nil {
		return nil, err
	}
	n := len(arr)
	measure(e, 3, func(i int) bool {
		if _, err = setup(); err != nil {
			return false
		}
		cfg := clusterConfig(e, bs, arr)
		runtime.GC() // earlier garbage is not this run's cost
		var got *cluster.Result
		var d time.Duration
		var runErr error
		ok := guard(e.dir, fmt.Sprintf("cluster-mix-run%d", i), clusterLimit, func() {
			t0 := time.Now()
			got, runErr = cluster.Run(cfg)
			d = time.Since(t0)
		})
		if !ok {
			o.runs(n, n)
			return false
		}
		if runErr != nil {
			logf("cluster-mix run %d: %v", i, runErr)
			o.runs(n, n)
			return true
		}
		actions := clusterFold(got, want, o, &x.t)
		x.nsPerAction = append(x.nsPerAction, float64(d.Nanoseconds())/float64(actions))
		x.eventsPerS = append(x.eventsPerS, float64(n)/d.Seconds())
		return true
	})
	if err != nil {
		return nil, err
	}
	x.rssMB = []float64{peakRSSMB()}
	x.report(o)
	return o, nil
}

// clusterFold compares a cluster run with the serial spec — routing
// record, merged observations, and every stream's lifecycle and
// statistics — tallies it, and returns the actions it executed.
func clusterFold(got, want *cluster.Result, o *outcome, t *tally) int {
	n := len(want.Assign)
	same := reflect.DeepEqual(got.Assign, want.Assign) && reflect.DeepEqual(got.Local, want.Local) &&
		reflect.DeepEqual(got.Routed, want.Routed) && reflect.DeepEqual(got.Global, want.Global)
	failed, actions := 0, 0
	t.streams += n
	for k := 0; k < n; k++ {
		if !same {
			failed++
			continue
		}
		gi, wi := got.Instances[got.Assign[k]], want.Instances[want.Assign[k]]
		j := got.Local[k]
		if !reflect.DeepEqual(gi.Lifecycles[j], wi.Lifecycles[j]) || !reflect.DeepEqual(gi.Streams[j], wi.Streams[j]) {
			failed++
			continue
		}
		if s := gi.Streams[j].Stats; s != nil {
			t.add(s)
			actions += s.Records
		}
	}
	o.runs(n, failed)
	return actions
}

// routeReplay drives the population through one OpenLive per instance
// from the calling goroutine, exactly as cluster.RunSerial does, timing
// Feed, the watermark drains, the policy and the admitter on tr (nil
// times nothing). heap, when non-nil, receives the live heap after GC
// once every stream is fed.
func routeReplay(tr *tracer, streams []fleet.Stream, times []core.Time, heap *uint64) error {
	maxLevels := 0
	for k := range streams {
		maxLevels = max(maxLevels, streams[k].Runner.Sys.NumLevels())
	}
	var adm fleet.Admitter = clusterAdmit
	var pol cluster.Policy = cluster.LeastBacklog{}
	if tr != nil {
		adm, pol = timedAdmitter{tr: tr, a: adm}, timedPolicy{tr: tr, p: pol}
	}
	lives := make([]*fleet.OpenLive, clusterInstances)
	for i := range lives {
		lives[i] = fleet.NewOpenLive(fleet.OpenLiveConfig{Admit: adm, Workers: clusterWorkers, MaxLevels: maxLevels})
	}
	order := make([]int, len(streams))
	for k := range order {
		order[k] = k
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(times[a], times[b]) })
	states := make([]cluster.InstanceState, clusterInstances)
	pending := make([]int, clusterInstances)
	var rng cluster.PolicyRNG
	lastT := core.Time(-1)
	for ord, k := range order {
		t := times[k]
		if t != lastT {
			clear(pending)
			lastT = t
		}
		for i, ol := range lives {
			tr.begin(lDrain)
			err := ol.Advance(t - 1)
			tr.end()
			if err != nil {
				return err
			}
			states[i] = cluster.InstanceState{InService: ol.InService(), Backlog: ol.Backlog(), CPULoad: ol.CPULoad()}
		}
		i := pol.Route(&cluster.Decision{Stream: &streams[k], K: k, T: t, Ordinal: ord, States: states, Pending: pending, RNG: &rng})
		pending[i]++
		tr.begin(lFeed)
		err := lives[i].Feed(streams[k], t)
		tr.end()
		if err != nil {
			return err
		}
	}
	if heap != nil {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		*heap = ms.HeapAlloc
	}
	for _, ol := range lives {
		tr.begin(lDrain)
		_, err := ol.Close()
		tr.end()
		if err != nil {
			return err
		}
	}
	return nil
}

func traceCluster(e *env) (*outcome, error) {
	specs, arr, err := clusterInputs(e)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	o := layerOutcome()
	var bs []*controller.Bundle
	if err := tr.phase(func() error {
		if _, err := clusterSetup(tr, e, specs, arr, false); err != nil {
			return err
		}
		bs, err = clusterSetup(tr, e, specs, arr, true)
		return err
	}); err != nil {
		return nil, err
	}
	a, err := serialStep(tr, clusterConfig(e, bs, arr).Streams)
	if err != nil {
		return nil, err
	}

	reg := obs.NewRegistry("perfbench")
	met := make([]*obs.FleetMetrics, clusterInstances)
	for i := range met {
		met[i] = obs.NewFleetMetrics(reg.WithLabels("instance", strconv.Itoa(i)))
	}
	// The engine walls are medians over a few runs of each kind; the
	// first parallel run also fills the counters.
	var serialNs, runNs []float64
	var got *cluster.Result
	var actions int
	for i := 0; i < engineRuns; i++ {
		t0 := time.Now()
		want, err := cluster.RunSerial(clusterConfig(e, bs, arr))
		if err != nil {
			return nil, err
		}
		serialNs = append(serialNs, float64(time.Since(t0).Nanoseconds()))
		cfg := clusterConfig(e, bs, arr)
		if i == 0 {
			cfg.Obs = met
		}
		var d time.Duration
		if !guard(e.dir, fmt.Sprintf("cluster-mix-traced%d", i), clusterLimit, func() {
			t0 := time.Now()
			got, err = cluster.Run(cfg)
			d = time.Since(t0)
		}) {
			o.runs(len(arr), len(arr))
			return o, nil
		}
		if err != nil {
			return nil, err
		}
		runNs = append(runNs, float64(d.Nanoseconds()))
		var t tally
		actions = clusterFold(got, want, o, &t)
	}

	var heap uint64
	cfg := clusterConfig(e, bs, arr)
	t0 := time.Now()
	if err := routeReplay(nil, cfg.Streams, cfg.Arrivals, &heap); err != nil {
		return nil, err
	}
	plainReplay := float64(time.Since(t0).Nanoseconds())
	cfg = clusterConfig(e, bs, arr)
	var tracedReplay float64
	if err := tr.phase(func() error {
		t0 := now()
		err := routeReplay(tr, cfg.Streams, cfg.Arrivals, nil)
		tracedReplay = float64(now() - t0)
		return err
	}); err != nil {
		return nil, err
	}

	o.commonLayers(tr, a, median(runNs), actions, clusterInstances*clusterWorkers)
	var steals, drains int64
	for _, m := range met {
		steals += m.Steals.Value()
		drains += m.BlockingDrains.Value()
	}
	o.layer("fleet.steals", float64(steals))
	o.feedLatency(tr, len(tr.lat[lFeed]))
	o.layer("fleet.admit_ns", tr.perCall(lAdmit))
	o.layer("fleet.blocking_drains", float64(drains))
	o.layer("fleet.heap_bytes_per_stream", float64(heap)/float64(len(arr)))
	o.layer("cluster.route_ns", tr.perCall(lRoute))
	o.layer("cluster.jain", got.Summarize().Fairness)
	o.layer("cluster.speedup", median(serialNs)/median(runNs))
	o.layer("trace_overhead_frac", (a.decoratedNs+tracedReplay-a.plainNs-plainReplay)/(a.plainNs+plainReplay))
	o.layer("ledger_residual_frac", tr.residual())
	return o, nil
}
