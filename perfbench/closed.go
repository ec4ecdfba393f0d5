package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/controller"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/sim"
)

// closed-encoder: the paper's encoder as a closed fleet through
// fleet.RunStats. Long streams make the per-action path (content model,
// decision plan, sink) plus the closed scheduler nearly all of the time;
// there is no admission, checkpoint or router.
const (
	closedStreams = 8
	closedCycles  = 1500
	closedWorkers = 2
	// closedLimit bounds one fleet run for the watchdog: ~100× its
	// typical duration on a 2-CPU host.
	closedLimit = 30 * time.Second
)

// encoderSpec is the paper's encoder (1,189 actions, 7 levels) with the
// paper's relaxation set, as compiler input.
func encoderSpec() controller.Spec {
	return controller.SpecFromSystem("paper-encoder", profiler.IPodSystem(), experiment.PaperRho)
}

// encoderStreams builds the population against the compiled encoder:
// the relaxed manager, the paper's content model in its memoized form,
// one derived content seed per stream.
func encoderStreams(b *controller.Bundle, seed uint64) []fleet.Stream {
	sys := b.System()
	base := sim.NewFastContent(sim.Content{
		Sys:          sys,
		FrameFactor:  experiment.FrameFactor,
		ActionFactor: experiment.ActionFactor,
		NoiseAmp:     0.08,
	}, sys.NumActions())
	streams := make([]fleet.Stream, closedStreams)
	for k := range streams {
		streams[k] = fleet.Stream{
			Name: fmt.Sprintf("encoder-%03d", k),
			Runner: sim.Runner{
				Sys:      sys,
				Mgr:      b.Relaxed(),
				Exec:     base.WithSeed(fleet.DeriveSeed(seed, k)),
				Overhead: sim.IPodOverhead,
				Cycles:   closedCycles,
				Period:   profiler.FramePeriod,
			},
		}
	}
	return streams
}

// closedInputs is the generated input: the compiler spec and the
// per-stream seeds, hashed for the run record.
func closedInputs(e *env) controller.Spec {
	spec := encoderSpec()
	seeds := make([]byte, 0, 8*closedStreams)
	for k := 0; k < closedStreams; k++ {
		seeds = fmt.Appendf(seeds, "%d/%d,", fleet.DeriveSeed(e.seed, k), closedCycles)
	}
	e.inputs = hashInputs(fmt.Appendf(nil, "%v", spec), seeds)
	return spec
}

func runClosed(e *env) (*outcome, error) {
	spec := closedInputs(e)
	o := newOutcome()
	var x e2e
	// setup takes one set-up sample and one restart sample. Samples are
	// taken before every measured run, so they span the run's time like
	// the measured runs do.
	setup := func() (*controller.Bundle, error) {
		t0 := time.Now()
		bs, err := compileBundles(nil, e.dir, []controller.Spec{spec})
		if err != nil {
			return nil, err
		}
		encoderStreams(bs[0], e.seed)
		buildPlans(nil, bs, true)
		x.setup = append(x.setup, time.Since(t0).Seconds())

		t0 = time.Now()
		if bs, err = loadBundles(nil, e.dir, []string{spec.Name}); err != nil {
			return nil, err
		}
		encoderStreams(bs[0], e.seed)
		buildPlans(nil, bs, true)
		x.resume = append(x.resume, time.Since(t0).Seconds())
		return bs[0], nil
	}
	b, err := setup()
	if err != nil {
		return nil, err
	}
	ref, err := encoderRef(b, e.seed)
	if err != nil {
		return nil, err
	}
	measure(e, 3, func(i int) bool {
		if _, err = setup(); err != nil {
			return false
		}
		streams := encoderStreams(b, e.seed)
		runtime.GC() // earlier garbage is not this run's cost
		var res *fleet.Result
		var d time.Duration
		var runErr error
		ok := guard(e.dir, fmt.Sprintf("closed-encoder-run%d", i), closedLimit, func() {
			t0 := time.Now()
			res, runErr = fleet.RunStats(fleet.Config{Streams: streams, Workers: closedWorkers})
			d = time.Since(t0)
		})
		if !ok {
			o.runs(len(streams), len(streams))
			return false
		}
		if runErr != nil {
			logf("closed-encoder run %d: %v", i, runErr)
			o.runs(len(streams), len(streams))
			return true
		}
		actions := closedFold(res, ref, o, &x.t)
		x.nsPerAction = append(x.nsPerAction, float64(d.Nanoseconds())/float64(actions))
		x.eventsPerS = append(x.eventsPerS, float64(len(streams))/d.Seconds())
		return true
	})
	if err != nil {
		return nil, err
	}
	x.rssMB = []float64{peakRSSMB()}
	x.report(o)
	return o, nil
}

// encoderRef is the serial reference of every stream.
func encoderRef(b *controller.Bundle, seed uint64) ([]streamRef, error) {
	streams := encoderStreams(b, seed)
	ref := make([]streamRef, len(streams))
	for k := range streams {
		r, err := serialRef(streams[k].Runner)
		if err != nil {
			return nil, err
		}
		ref[k] = r
	}
	return ref, nil
}

// closedFold checks a fleet result stream by stream against the serial
// reference, tallies it, and returns the actions it executed.
func closedFold(res *fleet.Result, ref []streamRef, o *outcome, t *tally) int {
	failed, actions := 0, 0
	t.streams += len(res.Streams)
	for k, sr := range res.Streams {
		if !ref[k].matches(sr) {
			failed++
			continue
		}
		t.add(sr.Stats)
		actions += sr.Stats.Records
	}
	o.runs(len(res.Streams), failed)
	return actions
}

func traceClosed(e *env) (*outcome, error) {
	spec := closedInputs(e)
	tr := newTracer()
	o := layerOutcome()
	var b *controller.Bundle
	if err := tr.phase(func() error {
		if _, err := compileBundles(tr, e.dir, []controller.Spec{spec}); err != nil {
			return err
		}
		bs, err := loadBundles(tr, e.dir, []string{spec.Name})
		if err != nil {
			return err
		}
		encoderStreams(bs[0], e.seed)
		buildPlans(tr, bs, true)
		b = bs[0]
		return nil
	}); err != nil {
		return nil, err
	}

	a, err := serialStep(tr, encoderStreams(b, e.seed))
	if err != nil {
		return nil, err
	}
	ref, err := encoderRef(b, e.seed)
	if err != nil {
		return nil, err
	}

	// The engine wall is a median over a few runs; the first also fills
	// the counters.
	met := obs.NewFleetMetrics(obs.NewRegistry("perfbench"))
	var res *fleet.Result
	var runNs []float64
	var actions int
	for i := 0; i < engineRuns; i++ {
		cfg := fleet.Config{Streams: encoderStreams(b, e.seed), Workers: closedWorkers}
		if i == 0 {
			cfg.Obs = met
		}
		var d time.Duration
		if !guard(e.dir, fmt.Sprintf("closed-encoder-traced%d", i), closedLimit, func() {
			t0 := time.Now()
			res, err = fleet.RunStats(cfg)
			d = time.Since(t0)
		}) {
			o.runs(closedStreams, closedStreams)
			return o, nil
		}
		if err != nil {
			return nil, err
		}
		runNs = append(runNs, float64(d.Nanoseconds()))
		var t tally
		actions = closedFold(res, ref, o, &t)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(res)

	o.commonLayers(tr, a, median(runNs), actions, closedWorkers)
	o.layer("fleet.steals", float64(met.Steals.Value()))
	o.layer("fleet.blocking_drains", float64(met.BlockingDrains.Value()))
	o.layer("fleet.heap_bytes_per_stream", float64(ms.HeapAlloc)/closedStreams)
	o.layer("trace_overhead_frac", (a.decoratedNs-a.plainNs)/a.plainNs)
	o.layer("ledger_residual_frac", tr.residual())
	return o, nil
}
