// Package obs is the engine's observability layer: an allocation-free
// metrics kernel (atomic counters, gauges, fixed-bucket histograms in
// pre-sized slabs behind a static slice-backed registry — no map
// lookups, no fmt, no interface boxing anywhere a worker runs) plus a
// bounded virtual-time event trace (trace.go) and a Prometheus text
// renderer/parser (expfmt.go).
//
// The package is dependency-free beyond the standard library and is
// bound by the same determinism contract as the engine packages it
// instruments (the //detlint:engine directive below): no wall clocks,
// no global RNG, no map iteration. Metric *values* come in two classes,
// tagged per metric in the registry:
//
//   - SerialOrder: a pure function of the run's serial event order —
//     identical at any (workers, batch) shape. Admissions, sheds,
//     backlog accounting.
//   - ShapeDependent: an artifact of how the scheduler happened to
//     interleave — steals, parks, flush sizes — or of the wall
//     clock (checkpoint encode time). Real signals for tuning, but not
//     reproducible across shapes.
//
// Hot-path updates are single atomic operations; the exposition side
// (WriteProm, Events) takes snapshots with atomic loads and may
// allocate freely. Every mutating hot method is nil-receiver-safe so
// instrumented code paths need no branches of their own.
package obs

//detlint:engine

import (
	"math"
	"sync/atomic"
)

// Determinism classifies a metric's reproducibility contract.
type Determinism uint8

const (
	// SerialOrder values are identical at any scheduler shape: they
	// depend only on the run's serial event order.
	SerialOrder Determinism = iota
	// ShapeDependent values depend on worker interleaving or the wall
	// clock and are not comparable across shapes.
	ShapeDependent
)

// String returns the registry/exposition label value.
func (d Determinism) String() string {
	if d == SerialOrder {
		return "serial-order"
	}
	return "shape-dependent"
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	//detlint:atomic
	v atomic.Int64
}

// Add increments the counter by n (n ≥ 0; monotonicity is the
// caller's contract, not checked on the hot path).
//
//detlint:hotpath
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
//
//detlint:hotpath
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	//detlint:atomic
	v atomic.Int64
}

// Set stores the current value.
//
//detlint:hotpath
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v exceeds the stored value — the
// high-water update used for backlog peaks.
//
//detlint:hotpath
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an atomic float64 value (bit-stored), for quantities
// that are natively fractional — the backlog integral, CPU load.
type FloatGauge struct {
	//detlint:atomic
	bits atomic.Uint64
}

// Set stores the current value.
//
//detlint:hotpath
func (g *FloatGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram over int64 samples.
// Bounds are set once at registration; counts live in one pre-sized
// slab, so Observe is a bounded scan plus two atomic adds.
type Histogram struct {
	bounds []int64 // upper bucket bounds, strictly increasing
	//detlint:atomic
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	//detlint:atomic
	sum atomic.Int64
}

// Observe records one sample.
//
//detlint:hotpath
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of samples observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// snapshot returns per-bucket counts (same order as bounds, +Inf last)
// and the sum, read with atomic loads.
func (h *Histogram) snapshot() ([]int64, int64) {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.sum.Load()
}

// metricKind discriminates Desc payloads.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindFloatGauge
	kindHistogram
)

// Desc is one registered metric: its full exposition name, help text,
// determinism class and payload. Metrics registered through a labeled
// view additionally carry the view's pre-rendered label pairs; the same
// name may appear once per distinct label set (one family, many
// series).
type Desc struct {
	Name string // full name including the registry prefix
	Help string
	Det  Determinism

	labels string // pre-rendered `,k="v"` pairs from the registering view
	kind   metricKind
	c      *Counter
	g      *Gauge
	fg     *FloatGauge
	h      *Histogram
	valid  bool
}

// Labels returns the metric's extra label pairs as rendered in the
// exposition (`instance="0"`, comma-separated), empty for metrics
// registered on the root registry.
func (d *Desc) Labels() string {
	if d.labels == "" {
		return ""
	}
	return d.labels[1:] // drop the leading comma of the render form
}

// Registry is a static metric registry: metrics are registered once at
// setup (registration may panic on programmer error and may allocate)
// and thereafter live in a flat slice — exposition walks the slice in
// registration order, and the hot path holds direct pointers, so no
// map is ever consulted after setup.
//
// WithLabels derives a labeled view: metrics registered through it land
// in the same root slice (one WriteProm serves them all) as separate
// series of the shared family — the mechanism a cluster uses to give
// each engine instance its own instance="i" series of every fleet
// instrument.
type Registry struct {
	prefix string
	labels string
	// root points to the registry owning the metric slice; nil on the
	// root itself.
	root    *Registry
	metrics []Desc
}

// NewRegistry returns a registry whose metric names are prefixed with
// prefix + "_" (empty prefix means bare names).
func NewRegistry(prefix string) *Registry {
	if prefix != "" && !validMetricName(prefix) {
		panic("obs: invalid registry prefix " + prefix)
	}
	return &Registry{prefix: prefix}
}

// WithLabels returns a view of the registry that stamps every metric
// registered through it with an extra label pair. Views share the
// root's metric slice: the family (name, help, type) is registered
// once, each view contributes its own series, and the root's WriteProm
// renders everything grouped per family. The value must not contain
// quotes, backslashes or newlines (no escaping on the hot-path side).
func (r *Registry) WithLabels(key, value string) *Registry {
	if !validMetricName(key) || key == detLabel {
		panic("obs: invalid label key " + key)
	}
	for i := 0; i < len(value); i++ {
		switch value[i] {
		case '"', '\\', '\n':
			panic("obs: label value needs escaping: " + value)
		}
	}
	return &Registry{
		prefix: r.prefix,
		labels: r.labels + "," + key + `="` + value + `"`,
		root:   r.base(),
	}
}

// base resolves the registry owning the metric slice.
func (r *Registry) base() *Registry {
	if r.root != nil {
		return r.root
	}
	return r
}

// Counter registers and returns a counter. Names are suffixed with
// "_total" (Prometheus counter convention) if not already.
func (r *Registry) Counter(name, help string, det Determinism) *Counter {
	if !hasSuffix(name, "_total") {
		name += "_total"
	}
	c := &Counter{}
	r.register(Desc{Name: r.full(name), Help: help, Det: det, kind: kindCounter, c: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string, det Determinism) *Gauge {
	g := &Gauge{}
	r.register(Desc{Name: r.full(name), Help: help, Det: det, kind: kindGauge, g: g})
	return g
}

// FloatGauge registers and returns a float-valued gauge.
func (r *Registry) FloatGauge(name, help string, det Determinism) *FloatGauge {
	g := &FloatGauge{}
	r.register(Desc{Name: r.full(name), Help: help, Det: det, kind: kindFloatGauge, fg: g})
	return g
}

// Histogram registers and returns a fixed-bucket histogram. Bounds
// must be non-empty and strictly increasing.
func (r *Registry) Histogram(name, help string, det Determinism, bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram " + name + " needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram " + name + " bounds must be strictly increasing")
		}
	}
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.register(Desc{Name: r.full(name), Help: help, Det: det, kind: kindHistogram, h: h})
	return h
}

// Metrics returns the registered descriptors in registration order,
// including every labeled view's series.
func (r *Registry) Metrics() []Desc {
	return r.base().metrics
}

func (r *Registry) full(name string) string {
	if r.prefix == "" {
		return name
	}
	return r.prefix + "_" + name
}

func (r *Registry) register(d Desc) {
	if !validMetricName(d.Name) {
		panic("obs: invalid metric name " + d.Name)
	}
	d.labels = r.labels
	root := r.base()
	for i := range root.metrics {
		prev := &root.metrics[i]
		if prev.Name != d.Name {
			continue
		}
		if prev.labels == d.labels {
			panic("obs: duplicate metric " + d.Name)
		}
		// Same family from another labeled view: the kind must agree or
		// the family's TYPE line would lie for one of the series.
		if prev.kind != d.kind {
			panic("obs: metric " + d.Name + " re-registered with a different type")
		}
	}
	d.valid = true
	root.metrics = append(root.metrics, d)
}

// validMetricName enforces the Prometheus identifier grammar
// [a-zA-Z_:][a-zA-Z0-9_:]* without regexp.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// hasSuffix avoids importing strings in the kernel file.
func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}
