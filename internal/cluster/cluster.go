// Package cluster scales the open fleet engine out across M
// independent instances behind a virtual-time front-end router. Each
// instance is a full fleet.OpenLive — its own admission controller
// state, worker pool and slot arena — so the cluster stacks
// instance-level parallelism on top of the per-instance pools: router
// and instances pipeline through command queues, and the final drains
// of all instances overlap. Every run allocates its own router slabs,
// instances and Result; nothing is shared across runs.
//
// Determinism is load-bearing, exactly as in the single engine: every
// routing decision is a pure function of the global serial event order.
// State-reading policies see each instance's serial-order load at the
// arrival's virtual instant — the router advances every instance's
// watermark to t−1 (so all simultaneous arrivals are decided in one
// event group, like the batch spec) and the instance blocks, bounded by
// the departure-bound gate, until that state is fully determined.
// Policy draws come from a keyed subsystem stream
// (fleet.ForSubsystem(seed, "cluster/router")), so enabling a drawing
// policy can never shift arrival or workload sequences. RunSerial is
// the executable spec: Run is property-tested byte-identical to it at
// every (workers, batch) × policy × arrival model.
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Config shapes a cluster run: the global arriving population plus the
// instance count, routing policy and per-instance engine shape.
type Config struct {
	// Streams is the global arriving population, Arrivals its arrival
	// instants — exactly OpenConfig's contract: one finite non-negative
	// instant per stream, ordered by the router as (instant, index).
	Streams  []fleet.Stream
	Arrivals []core.Time
	// Instances is the cluster width M (≥ 1).
	Instances int
	// Route assigns each arrival to an instance; nil selects RoundRobin.
	// The policy must be a pure function of its Decision (see Policy).
	Route Policy
	// Admit is each instance's admission controller; nil selects
	// AdmitAll. The same value is shared across instances, so it must be
	// stateless — which the Admitter contract already requires.
	Admit fleet.Admitter
	// Workers and BatchCycles shape each instance's engine exactly as
	// in OpenConfig. They change wall-clock time, never results — and
	// neither does the instance count times they are multiplied by.
	Workers     int
	BatchCycles int
	// Seed is the cluster's base seed. The router's policy draw stream
	// is ForSubsystem(Seed, "cluster/router"); workload and arrival
	// seeds derive from their own subsystems, so no component's draws
	// can shift another's.
	Seed uint64
	// Obs, when non-nil, carries one metric bundle per instance
	// (len ≥ Instances), typically NewFleetMetrics over per-instance
	// labeled registries. Results are byte-identical with it on or off.
	Obs []*obs.FleetMetrics
}

// Result is a cluster run's outcome: each instance's complete open
// result plus the routing record that maps the global population onto
// them.
type Result struct {
	// Instances[i] is instance i's sealed open result; its slices are
	// in instance-local routed order. An instance the policy never
	// routed to has an empty result.
	Instances []*fleet.OpenResult
	// Assign[k] is the instance stream k was routed to and Local[k] its
	// index within that instance's result slices, so
	// Instances[Assign[k]].Lifecycles[Local[k]] is stream k's lifecycle.
	Assign []int32
	Local  []int32
	// Routed[i] counts streams routed to instance i.
	Routed []int
	// Policy is the routing policy's name.
	Policy string
	// Global is the merged observation record: lifecycles in global
	// (arrival-process) stream order, BacklogIntegral summed across
	// instances (each queues independently), MaxBacklog the deepest any
	// single instance's queue got, and the window bounds the min/max
	// over instances.
	Global metrics.OpenObservations
}

// Summarize computes the cluster summary: global and per-instance
// open-system summaries plus the Jain fairness index of the routing.
func (r *Result) Summarize() metrics.ClusterSummary {
	per := make([]metrics.OpenObservations, len(r.Instances))
	for i, inst := range r.Instances {
		per[i] = inst.OpenObservations
	}
	return metrics.SummarizeCluster(r.Policy, r.Global, per, r.Routed)
}

// FleetResult returns the executed streams as one closed-fleet result
// in global stream order (shed streams skipped), so the whole
// cross-stream aggregation and reporting stack applies unchanged to a
// cluster run — exactly OpenResult.FleetResult, across instances.
func (r *Result) FleetResult() *fleet.Result {
	res := &fleet.Result{Streams: make([]fleet.StreamResult, 0, len(r.Assign))}
	for k := range r.Assign {
		inst := r.Instances[r.Assign[k]]
		j := r.Local[k]
		if inst.Lifecycles[j].Shed {
			continue
		}
		res.Streams = append(res.Streams, inst.Streams[j])
	}
	return res
}

// Run executes the cluster with one goroutine per instance: the router
// streams commands (advance watermark, feed arrival, read state, close)
// into per-instance queues, so instances execute concurrently with each
// other and with the router — stateless policies never synchronize at
// all, and state-reading ones synchronize exactly at each arrival's
// virtual instant. The result is byte-identical to RunSerial.
func Run(cfg Config) (*Result, error) {
	res, dec, order, maxLevels, err := prepare(&cfg)
	if err != nil {
		return nil, err
	}
	d := &concDriver{streams: cfg.Streams, ws: make([]instWorker, cfg.Instances)}
	for i := 0; i < cfg.Instances; i++ {
		d.ws[i] = instWorker{
			cmds:  make(chan instCmd, 128),
			state: make(chan InstanceState, 1),
			done:  make(chan instDone, 1),
		}
		// The OpenLive is created here and handed to the worker
		// goroutine: creation happens-before the goroutine starts, and
		// from then on the worker is its sole owner.
		go runInstance(newInstance(&cfg, maxLevels, i), cfg.Streams, d.ws[i])
	}
	return runCluster(&cfg, res, dec, order, d)
}

// RunSerial is the cluster's executable specification: the identical
// router loop driving all instances from one goroutine. Results are
// byte-for-byte what Run produces, and at Workers = 1 the router's
// steady state allocates nothing per arrival, which pins the router hot
// path's zero-allocation contract.
func RunSerial(cfg Config) (*Result, error) {
	res, dec, order, maxLevels, err := prepare(&cfg)
	if err != nil {
		return nil, err
	}
	d := &serialDriver{lives: make([]*fleet.OpenLive, cfg.Instances), streams: cfg.Streams, errs: make([]error, cfg.Instances)}
	for i := range d.lives {
		d.lives[i] = newInstance(&cfg, maxLevels, i)
	}
	return runCluster(&cfg, res, dec, order, d)
}

// prepare validates the configuration, resolves a nil Route to
// RoundRobin and allocates the run's working memory: the Result with its
// routing record, the Decision with its pending counts, instance states
// and policy draw stream, and the global arrival order, sorted.
func prepare(cfg *Config) (res *Result, dec *Decision, order []int32, maxLevels int, err error) {
	if cfg.Instances <= 0 {
		return nil, nil, nil, 0, fmt.Errorf("cluster: non-positive instance count %d", cfg.Instances)
	}
	n, m := len(cfg.Streams), cfg.Instances
	if n == 0 {
		return nil, nil, nil, 0, errors.New("cluster: no streams")
	}
	if len(cfg.Arrivals) != n {
		return nil, nil, nil, 0, fmt.Errorf("cluster: %d streams but %d arrival instants", n, len(cfg.Arrivals))
	}
	for k := range cfg.Streams {
		if t := cfg.Arrivals[k]; t < 0 || t.IsInf() {
			return nil, nil, nil, 0, fmt.Errorf("cluster: stream %d has invalid arrival instant %v", k, t)
		}
		if sys := cfg.Streams[k].Runner.Sys; sys != nil && sys.NumLevels() > maxLevels {
			maxLevels = sys.NumLevels()
		}
	}
	if cfg.Obs != nil && len(cfg.Obs) < m {
		return nil, nil, nil, 0, fmt.Errorf("cluster: %d metric bundles for %d instances", len(cfg.Obs), m)
	}
	if cfg.Route == nil {
		cfg.Route = RoundRobin{}
	}
	res = &Result{
		Instances: make([]*fleet.OpenResult, m),
		Assign:    make([]int32, n),
		Local:     make([]int32, n),
		Routed:    make([]int, m),
		Policy:    cfg.Route.Name(),
	}
	dec = &Decision{Pending: make([]int, m), RNG: &PolicyRNG{state: fleet.ForSubsystem(cfg.Seed, "cluster/router")}}
	if cfg.Route.NeedsState() {
		dec.States = make([]InstanceState, m)
	}
	order = make([]int32, n)
	for k := range order {
		order[k] = int32(k)
	}
	// Stable by instant: simultaneous arrivals keep index order, the
	// same (instant, index) event order as the single-engine spec.
	slices.SortStableFunc(order, func(a, b int32) int {
		return cmp.Compare(cfg.Arrivals[a], cfg.Arrivals[b])
	})
	return res, dec, order, maxLevels, nil
}

// newInstance starts instance i's incremental engine.
func newInstance(cfg *Config, maxLevels, i int) *fleet.OpenLive {
	lc := fleet.OpenLiveConfig{
		Admit:       cfg.Admit,
		Workers:     cfg.Workers,
		BatchCycles: cfg.BatchCycles,
		MaxLevels:   maxLevels,
	}
	if cfg.Obs != nil {
		lc.Obs = cfg.Obs[i]
	}
	return fleet.NewOpenLive(lc)
}

// driver is the router's view of the instance set: the serial form
// calls straight into each OpenLive, the concurrent form streams the
// same calls through per-instance command queues. Both execute the
// identical serial-order protocol, which is why their results are
// byte-identical.
type driver interface {
	// advance moves every instance's watermark to w (asynchronously in
	// the concurrent form — ordering per instance is all that matters).
	advance(w core.Time)
	// states reads every instance's serial-order state at its current
	// watermark; a barrier in the concurrent form.
	states(dst []InstanceState)
	// feed hands stream k arriving at t to instance i.
	feed(i int, k int32, t core.Time)
	// finish closes every instance — concurrently in the concurrent
	// form, so the final drains overlap — collecting results and the
	// first instance error. Zero-routed instances are aborted and get
	// an empty result (Close on an empty engine is the no-streams
	// error, which routing made legitimate here).
	finish(routed []int, results []*fleet.OpenResult) error
	// abort tears every instance down without sealing (router error).
	abort()
}

// runCluster is the shared router loop: the single place routing
// semantics are defined, so the spec and the concurrent engine cannot
// drift. It routes into the memory prepare allocated.
//
//detlint:hotpath
func runCluster(cfg *Config, res *Result, dec *Decision, order []int32, d driver) (*Result, error) {
	pol, m := cfg.Route, cfg.Instances
	needs := pol.NeedsState()
	lastT := core.Time(-1)
	for ord, k := range order {
		t := cfg.Arrivals[k]
		if t != lastT {
			// A new instant: every previously routed arrival is now
			// visible in instance state once the watermark reaches t−1.
			clear(dec.Pending)
			lastT = t
		}
		if needs {
			// Watermark t−1, not t: all arrivals at instant t must be
			// decided in one event group, exactly like the batch spec —
			// advancing through t would let a same-instant departure
			// retire between two simultaneous arrivals' decisions.
			d.advance(t - 1)
			d.states(dec.States)
		}
		dec.Stream = &cfg.Streams[k]
		dec.K = int(k)
		dec.T = t
		dec.Ordinal = ord
		i := pol.Route(dec)
		if i < 0 || i >= m {
			d.abort()
			//detlint:allow hotpathalloc terminal abort on a misrouting policy, never taken at steady state
			return nil, fmt.Errorf("cluster: policy %q routed stream %d to instance %d of %d", pol.Name(), k, i, m)
		}
		res.Assign[k] = int32(i)
		res.Local[k] = int32(res.Routed[i])
		res.Routed[i]++
		dec.Pending[i]++
		d.feed(i, k, t)
	}
	if err := d.finish(res.Routed, res.Instances); err != nil {
		return nil, err
	}
	res.Global = mergeObservations(res)
	return res, nil
}

// mergeObservations assembles the global observation record from the
// sealed per-instance results: lifecycles back in global stream order
// via the (Assign, Local) routing record, backlog integral summed,
// window bounds min/max over the instances that saw traffic.
func mergeObservations(r *Result) metrics.OpenObservations {
	var o metrics.OpenObservations
	first := true
	for _, inst := range r.Instances {
		if len(inst.Lifecycles) == 0 {
			continue
		}
		if first {
			o.FirstArrival, o.End, o.Final = inst.FirstArrival, inst.End, inst.Final
			o.MaxBacklog = inst.MaxBacklog
			first = false
		} else {
			o.FirstArrival = min(o.FirstArrival, inst.FirstArrival)
			o.End = max(o.End, inst.End)
			o.Final = max(o.Final, inst.Final)
			o.MaxBacklog = max(o.MaxBacklog, inst.MaxBacklog)
		}
		o.BacklogIntegral += inst.BacklogIntegral
	}
	o.Lifecycles = make([]metrics.Lifecycle, len(r.Assign))
	for k := range r.Assign {
		o.Lifecycles[k] = r.Instances[r.Assign[k]].Lifecycles[r.Local[k]]
	}
	return o
}

// serialDriver drives every instance from the router's own goroutine —
// the executable spec.
type serialDriver struct {
	lives   []*fleet.OpenLive
	streams []fleet.Stream
	errs    []error
}

func (d *serialDriver) advance(w core.Time) {
	for i, ol := range d.lives {
		if d.errs[i] == nil {
			d.errs[i] = ol.Advance(w)
		}
	}
}

func (d *serialDriver) states(dst []InstanceState) {
	for i, ol := range d.lives {
		dst[i] = InstanceState{InService: ol.InService(), Backlog: ol.Backlog(), CPULoad: ol.CPULoad()}
	}
}

func (d *serialDriver) feed(i int, k int32, t core.Time) {
	if d.errs[i] == nil {
		d.errs[i] = d.lives[i].Feed(d.streams[k], t)
	}
}

func (d *serialDriver) finish(routed []int, results []*fleet.OpenResult) error {
	var firstErr error
	for i, ol := range d.lives {
		switch {
		case d.errs[i] != nil:
			ol.Abort()
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: instance %d: %w", i, d.errs[i])
			}
		case routed[i] == 0:
			ol.Abort()
			results[i] = &fleet.OpenResult{}
		default:
			res, err := ol.Close()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("cluster: instance %d: %w", i, err)
				}
				continue
			}
			results[i] = res
		}
	}
	return firstErr
}

func (d *serialDriver) abort() {
	for _, ol := range d.lives {
		ol.Abort()
	}
}

// concDriver streams the router protocol through one command queue per
// instance goroutine. The queue is FIFO, so each instance executes its
// advance/feed/state sequence in exactly the serial driver's order;
// across instances there is no ordering to preserve — their event
// sequences are independent once routed.
type concDriver struct {
	streams []fleet.Stream
	ws      []instWorker
}

type instWorker struct {
	cmds  chan instCmd
	state chan InstanceState
	done  chan instDone
}

type instCmd struct {
	op byte
	t  core.Time
	k  int32
}

type instDone struct {
	res *fleet.OpenResult
	err error
}

const (
	opAdvance byte = iota
	opFeed
	opState
	opClose
	opAbort
)

// runInstance is one instance goroutine: it owns its OpenLive and
// applies router commands in queue order until closed or aborted.
func runInstance(ol *fleet.OpenLive, streams []fleet.Stream, w instWorker) {
	var err error
	for c := range w.cmds {
		switch c.op {
		case opAdvance:
			if err == nil {
				err = ol.Advance(c.t)
			}
		case opFeed:
			if err == nil {
				err = ol.Feed(streams[c.k], c.t)
			}
		case opState:
			w.state <- InstanceState{InService: ol.InService(), Backlog: ol.Backlog(), CPULoad: ol.CPULoad()}
		case opClose:
			if err != nil {
				ol.Abort()
				w.done <- instDone{err: err}
				return
			}
			res, cerr := ol.Close()
			w.done <- instDone{res: res, err: cerr}
			return
		case opAbort:
			ol.Abort()
			w.done <- instDone{}
			return
		}
	}
}

func (d *concDriver) advance(w core.Time) {
	for i := range d.ws {
		d.ws[i].cmds <- instCmd{op: opAdvance, t: w}
	}
}

func (d *concDriver) states(dst []InstanceState) {
	// Broadcast first, then gather: the M reads overlap.
	for i := range d.ws {
		d.ws[i].cmds <- instCmd{op: opState}
	}
	for i := range d.ws {
		dst[i] = <-d.ws[i].state
	}
}

func (d *concDriver) feed(i int, k int32, t core.Time) {
	d.ws[i].cmds <- instCmd{op: opFeed, t: t, k: k}
}

func (d *concDriver) finish(routed []int, results []*fleet.OpenResult) error {
	// Broadcast the closes before collecting anything: every instance's
	// final drain runs concurrently — this overlap is the cluster's
	// instance-level parallelism at its widest.
	for i := range d.ws {
		op := byte(opClose)
		if routed[i] == 0 {
			op = opAbort
		}
		d.ws[i].cmds <- instCmd{op: op}
	}
	var firstErr error
	for i := range d.ws {
		dn := <-d.ws[i].done
		close(d.ws[i].cmds)
		switch {
		case routed[i] == 0:
			results[i] = &fleet.OpenResult{}
		case dn.err != nil:
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: instance %d: %w", i, dn.err)
			}
		default:
			results[i] = dn.res
		}
	}
	return firstErr
}

func (d *concDriver) abort() {
	for i := range d.ws {
		d.ws[i].cmds <- instCmd{op: opAbort}
	}
	for i := range d.ws {
		<-d.ws[i].done
		close(d.ws[i].cmds)
	}
}
