package main

import (
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// layer names a boundary the traced pass times.
type layer int

const (
	lStep layer = iota
	lContent
	lSink
	lDecide
	lCompile
	lLoad
	lPlan
	lFeed
	lDrain // OpenLive.Advance and Close: frontier work outside Feed
	lAdmit
	lRoute
	lCapture
	lEncode
	lSave
	lLoadLatest
	lRestore
	lCalibrate
	nLayers
)

var epoch = time.Now()

// now is the monotonic clock in nanoseconds since program start.
func now() int64 { return int64(time.Since(epoch)) }

type frame struct {
	l            layer
	start, child int64
}

// repeats is how often a decorator repeats a call under one clock
// pair. The per-action and per-event interfaces cost a few ns, less than
// one clock reading, so they are timed by repetition. Repeating is safe:
// managers, content models, admitters and policies are pure functions
// of their arguments, and the sink's repeats land in a sink nobody
// reads.
const repeats = 16

// engineRuns is how often a traced pass times its engine phase; the
// scheduler layers take the median wall.
const engineRuns = 3

// tracer times spans on one goroutine. A span's inclusive time has the
// clock's own reading bias removed; its self time further excludes its
// children and everything timing them cost. A nil tracer times nothing,
// so set-up code serves both the plain and the traced runs.
type tracer struct {
	stack []frame
	incl  [nLayers]int64
	self  [nLayers]int64
	calls [nLayers]int64
	// lat keeps the inclusive time of each Feed and each checkpoint
	// step, for their percentiles.
	lat [nLayers][]int64
	// wall sums the phases the ledger covers (see phase); overhead is
	// the part of it the tracer itself spent.
	wall, overhead int64
	// bias is what an empty span reads; cost is what one empty span
	// costs its caller. Both come from calibrate.
	bias, cost int64
}

func newTracer() *tracer {
	tr := &tracer{}
	tr.calibrate()
	return tr
}

// fork returns a fresh tracer sharing tr's calibration, for a pass
// whose spans must not enter tr's ledger.
func (tr *tracer) fork() *tracer {
	return &tracer{bias: tr.bias, cost: tr.cost}
}

func (tr *tracer) begin(l layer) {
	if tr == nil {
		return
	}
	tr.stack = append(tr.stack, frame{l: l, start: now()})
}

func (tr *tracer) end() {
	if tr == nil {
		return
	}
	t := now()
	f := tr.stack[len(tr.stack)-1]
	tr.stack = tr.stack[:len(tr.stack)-1]
	d := t - f.start - tr.bias
	tr.incl[f.l] += d
	tr.self[f.l] += d - f.child
	tr.calls[f.l]++
	tr.overhead += tr.cost
	switch f.l {
	case lFeed, lCapture, lEncode, lSave:
		tr.lat[f.l] = append(tr.lat[f.l], d)
	}
	if n := len(tr.stack); n > 0 {
		tr.stack[n-1].child += d + tr.cost
	}
}

// batch closes a run of repeats calls started at t0 (a now() reading).
// The layer is charged one call's worth of self time, for the real call
// the decorator made outside the batch; the batch itself is tracer
// overhead.
func (tr *tracer) batch(l layer, t0 int64) {
	d := now() - t0 - tr.bias
	one := d / repeats
	tr.incl[l] += d
	tr.calls[l] += repeats
	tr.self[l] += one
	tr.overhead += d + tr.cost
	if n := len(tr.stack); n > 0 {
		tr.stack[n-1].child += one + d + tr.cost
	}
}

// phase runs fn and adds its wall time to the ledger.
func (tr *tracer) phase(fn func() error) error {
	t0 := now()
	err := fn()
	if tr != nil {
		tr.wall += now() - t0
	}
	return err
}

// perCall is a layer's mean inclusive time per call, in ns.
func (tr *tracer) perCall(l layer) float64 {
	if tr.calls[l] == 0 {
		return 0
	}
	return float64(tr.incl[l]) / float64(tr.calls[l])
}

func (tr *tracer) ms(l layer) float64 { return float64(tr.incl[l]) / 1e6 }

// residual is the share of the ledger's wall time that no layer's self
// time covers, net of the tracer's own cost.
func (tr *tracer) residual() float64 {
	if tr.wall == 0 {
		return 0
	}
	covered := tr.overhead
	for l := range tr.self {
		covered += tr.self[l]
	}
	return float64(tr.wall-covered) / float64(tr.wall)
}

// calibrate measures what an empty span reads and what it costs its
// caller, as medians over batches.
func (tr *tracer) calibrate() {
	const k = 1 << 15
	var biases, costs []float64
	for r := 0; r < 9; r++ {
		tr.incl[lCalibrate] = 0
		t0 := now()
		for i := 0; i < k; i++ {
			tr.begin(lCalibrate)
			tr.end()
		}
		costs = append(costs, float64(now()-t0)/k)
		biases = append(biases, float64(tr.incl[lCalibrate])/k)
	}
	*tr = tracer{bias: int64(math.Round(median(biases))), cost: int64(math.Round(median(costs)))}
}

// The timing decorators wrap the interfaces the engine calls. Each makes
// the real call, then times repeats more of it.

type timedManager struct {
	tr *tracer
	m  core.Manager
}

func (d timedManager) Name() string { return d.m.Name() }

func (d timedManager) Decide(i int, t core.Time) core.Decision {
	r := d.m.Decide(i, t)
	t0 := now()
	for j := 0; j < repeats; j++ {
		d.m.Decide(i, t)
	}
	d.tr.batch(lDecide, t0)
	return r
}

type timedExec struct {
	tr *tracer
	m  sim.ExecModel
}

func (d timedExec) Actual(c, i int, q core.Level) core.Time {
	v := d.m.Actual(c, i, q)
	t0 := now()
	for j := 0; j < repeats; j++ {
		d.m.Actual(c, i, q)
	}
	d.tr.batch(lContent, t0)
	return v
}

type timedSink struct {
	tr *tracer
	s  sim.Sink
}

func (d timedSink) Observe(rec sim.Record) {
	d.s.Observe(rec)
	t0 := now()
	for j := 0; j < repeats; j++ {
		d.s.Observe(rec)
	}
	d.tr.batch(lSink, t0)
}

type timedAdmitter struct {
	tr *tracer
	a  fleet.Admitter
}

func (d timedAdmitter) Name() string { return d.a.Name() }

func (d timedAdmitter) Decide(l fleet.Load, u float64) fleet.Verdict {
	v := d.a.Decide(l, u)
	t0 := now()
	for j := 0; j < repeats; j++ {
		d.a.Decide(l, u)
	}
	d.tr.batch(lAdmit, t0)
	return v
}

type timedPolicy struct {
	tr *tracer
	p  cluster.Policy
}

func (d timedPolicy) Name() string     { return d.p.Name() }
func (d timedPolicy) NeedsState() bool { return d.p.NeedsState() }

func (d timedPolicy) Route(dec *cluster.Decision) int {
	i := d.p.Route(dec)
	t0 := now()
	for j := 0; j < repeats; j++ {
		d.p.Route(dec)
	}
	d.tr.batch(lRoute, t0)
	return i
}

// actionLedger is the per-action cost of a population, from two serial
// Runner.Stream/Step passes: a plain one timing only Step, and one with
// the manager, content model and sink decorated.
type actionLedger struct {
	actions, decisions int64
	// stepNs is Σ Step over the plain pass; plainNs and decoratedNs are
	// the two passes' wall times.
	stepNs, plainNs, decoratedNs float64
	// Per-call costs from the decorated pass.
	contentNs, sinkNs, decideNs float64
}

// serialStep runs every stream of the population to completion on the
// calling goroutine twice: a plain run timing each Step on tr, part of
// tr's ledger, then a decorated run on a fork of tr. The two alternate
// stream by stream, so that both passes see the same host conditions.
func serialStep(tr *tracer, streams []fleet.Stream) (actionLedger, error) {
	var a actionLedger
	dt := tr.fork()
	for k := range streams {
		var sink *sim.StatsSink
		t0 := now()
		err := tr.phase(func() error {
			r := streams[k].Runner
			sink = sim.NewStatsSink(r.Sys.NumLevels())
			r.Sink = sink
			st, err := r.Stream()
			if err != nil {
				return err
			}
			for {
				tr.begin(lStep)
				ok := st.Step()
				tr.end()
				if !ok {
					return nil
				}
			}
		})
		a.plainNs += float64(now() - t0)
		if err != nil {
			return a, err
		}
		a.actions += int64(sink.Records)
		a.decisions += int64(sink.Decisions)

		t0 = now()
		r := streams[k].Runner
		r.Mgr = timedManager{tr: dt, m: r.Mgr}
		r.Exec = timedExec{tr: dt, m: r.Exec}
		r.Sink = timedSink{tr: dt, s: sim.NewStatsSink(r.Sys.NumLevels())}
		st, err := r.Stream()
		if err != nil {
			return a, err
		}
		for st.Step() {
		}
		a.decoratedNs += float64(now() - t0)
	}
	a.stepNs = float64(tr.incl[lStep])
	a.contentNs, a.sinkNs, a.decideNs = dt.perCall(lContent), dt.perCall(lSink), dt.perCall(lDecide)
	return a, nil
}

// stepSelfNs is Step per action minus the decorated calls inside it.
func (a actionLedger) stepSelfNs() float64 {
	if a.actions == 0 {
		return 0
	}
	n := float64(a.actions)
	return a.stepNs/n - a.contentNs - a.sinkNs - a.decideNs*float64(a.decisions)/n
}

// layerMetrics lists every per-layer metric in report order. A layer a
// workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"sim.step_self_ns", "ns"},
	{"sim.content_ns", "ns"},
	{"sim.sink_ns", "ns"},
	{"regions.decide_ns", "ns"},
	{"regions.decisions_per_action", "ratio"},
	{"regions.plan_build_ms", "ms"},
	{"controller.load_ms", "ms"},
	{"controller.compile_ms", "ms"},
	{"fleet.sched_overhead_ns", "ns"},
	{"fleet.parallel_efficiency", "ratio"},
	{"fleet.steals", "count"},
	{"fleet.feed_us_p50", "us"},
	{"fleet.feed_us_p99", "us"},
	{"fleet.admit_ns", "ns"},
	{"fleet.blocking_drains", "count"},
	{"fleet.heap_bytes_per_stream", "bytes"},
	{"checkpoint.capture_ms", "ms"},
	{"checkpoint.encode_ms", "ms"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.snapshot_bytes", "bytes"},
	{"checkpoint.snapshots", "count"},
	{"checkpoint.load_ms", "ms"},
	{"checkpoint.restore_ms", "ms"},
	{"qmfleetd.ingest_residual_us", "us"},
	{"qmfleetd.resume_residual_ms", "ms"},
	{"cluster.route_ns", "ns"},
	{"cluster.jain", "ratio"},
	{"cluster.speedup", "ratio"},
	{"trace_overhead_frac", "fraction"},
	{"ledger_residual_frac", "fraction"},
}

// layerOutcome starts a traced outcome with every per-layer metric at 0,
// in report order.
func layerOutcome() *outcome {
	o := newOutcome()
	for _, m := range layerMetrics {
		o.set(m.name, m.unit, 0)
	}
	return o
}

func (o *outcome) layer(name string, v float64) {
	o.set(name, o.values[name].Unit, v)
}

// commonLayers reports what every workload measures: the per-action and
// set-up layers, and the scheduler's share of the engine phase, whose
// wall time is engineNs with workers goroutines executing streams. Both
// sides are per action, because the serial pass runs the whole
// population while the engine runs no shed stream: engineActions is what
// the engine executed.
func (o *outcome) commonLayers(tr *tracer, a actionLedger, engineNs float64, engineActions, workers int) {
	n := float64(a.actions)
	o.layer("sim.step_self_ns", a.stepSelfNs())
	o.layer("sim.content_ns", a.contentNs)
	o.layer("sim.sink_ns", a.sinkNs)
	o.layer("regions.decide_ns", a.decideNs)
	o.layer("regions.decisions_per_action", float64(a.decisions)/n)
	o.layer("regions.plan_build_ms", tr.ms(lPlan))
	o.layer("controller.load_ms", tr.ms(lLoad))
	o.layer("controller.compile_ms", tr.ms(lCompile))
	step := a.stepNs / n
	busy := engineNs * float64(workers) / float64(engineActions)
	o.layer("fleet.sched_overhead_ns", busy-step)
	o.layer("fleet.parallel_efficiency", step/busy)
}

// feedLatency reports the Feed latency percentiles in µs over the
// first n Feeds.
func (o *outcome) feedLatency(tr *tracer, n int) {
	lat := scaled(tr.lat[lFeed][:n], 1e3)
	o.layer("fleet.feed_us_p50", quantile(lat, 0.5))
	o.layer("fleet.feed_us_p99", quantile(lat, 0.99))
}

// scaled converts nanosecond samples to the unit of div nanoseconds.
func scaled(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / div
	}
	return out
}
