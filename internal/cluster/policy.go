package cluster

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// InstanceState is the serial-order load of one engine instance as the
// router sees it at a routing instant: the state after every departure,
// backlog promotion and fed arrival at instants strictly before the
// arrival being routed. It is a pure function of the instance's fed
// event sequence — independent of (workers, batch) — which
// is what makes every routing decision reproducible at any shape.
type InstanceState struct {
	// InService counts streams admitted and not yet departed.
	InService int
	// Backlog counts streams queued for admission.
	Backlog int
	// CPULoad is the summed multitask utilization of in-service streams.
	CPULoad float64
}

// PolicyRNG is the router's policy draw stream: a sequential splitmix64
// sequence seeded by fleet.ForSubsystem(seed, "cluster/router"), so a
// policy that draws (utilization-weighted) consumes randomness from its
// own keyed subsystem — adding or removing router draws can never shift
// the arrival-process or per-stream workload sequences, and vice versa.
type PolicyRNG struct{ state uint64 }

// Unit returns the next uniform draw in [0, 1).
func (r *PolicyRNG) Unit() float64 {
	r.state += 0x9E3779B97F4A7C15
	return float64(sim.Mix64(r.state)>>11) / float64(1<<53)
}

// Decision is the router's view of one arriving stream. Every field is
// a pure function of the global serial event order, so Route
// implementations are deterministic by construction.
type Decision struct {
	// Stream is the arriving stream (for content-keyed policies).
	Stream *fleet.Stream
	// K is the stream's global index, T its arrival instant.
	K int
	T core.Time
	// Ordinal is the 0-based serial number of this arrival in global
	// (instant, index) order.
	Ordinal int
	// States is the per-instance serial-order state at the arrival's
	// virtual instant; nil for policies that report NeedsState false.
	States []InstanceState
	// Pending[i] counts arrivals already routed to instance i at exactly
	// instant T whose admission verdict is not yet visible in States[i]
	// (the instance watermark sits at T−1 so that all simultaneous
	// arrivals are decided in one event group, exactly like the
	// single-engine spec). len(Pending) is the instance count.
	Pending []int
	// RNG is the router's policy draw stream.
	RNG *PolicyRNG
}

// Policy assigns each arriving stream to an engine instance. Route must
// be a pure function of the Decision (plus draws from its RNG, which
// the router replays in serial order): the cluster's byte-for-byte
// determinism across scheduler shapes rests on it, exactly as the open
// engine's rests on Admitter purity.
type Policy interface {
	// Name identifies the policy for reports and benchmark rows.
	Name() string
	// NeedsState reports whether Route reads Decision.States. Stateless
	// policies skip the per-arrival instance watermark synchronization
	// entirely, so the router never blocks on instance progress.
	NeedsState() bool
	// Route returns the target instance in [0, len(d.Pending)).
	Route(d *Decision) int
}

// RoundRobin cycles arrivals across instances in global arrival order —
// the stateless default, and the identity routing the M=1 pass-through
// equivalence pins down.
type RoundRobin struct{}

// Name implements Policy.
func (RoundRobin) Name() string { return "round-robin" }

// NeedsState implements Policy.
func (RoundRobin) NeedsState() bool { return false }

// Route implements Policy.
//
//detlint:hotpath
func (RoundRobin) Route(d *Decision) int { return d.Ordinal % len(d.Pending) }

// LeastBacklog routes each arrival to the instance with the fewest
// outstanding streams at the arrival's virtual instant: primary key is
// queue depth (serial-order backlog plus same-instant arrivals already
// routed there), ties break on in-service count, then instance index.
type LeastBacklog struct{}

// Name implements Policy.
func (LeastBacklog) Name() string { return "least-backlog" }

// NeedsState implements Policy.
func (LeastBacklog) NeedsState() bool { return true }

// Route implements Policy.
//
//detlint:hotpath
func (LeastBacklog) Route(d *Decision) int {
	best := 0
	bq := d.States[0].Backlog + d.Pending[0]
	bs := d.States[0].InService
	for i := 1; i < len(d.States); i++ {
		q := d.States[i].Backlog + d.Pending[i]
		s := d.States[i].InService
		if q < bq || (q == bq && s < bs) {
			best, bq, bs = i, q, s
		}
	}
	return best
}

// UtilizationWeighted samples the target instance with probability
// proportional to its remaining capacity 1/(1 + CPULoad + pending):
// lightly-loaded instances attract arrivals without the hard
// winner-takes-all of LeastBacklog. The draw comes from the router's
// keyed subsystem stream, so enabling this policy never perturbs
// workload or arrival draws.
type UtilizationWeighted struct{}

// Name implements Policy.
func (UtilizationWeighted) Name() string { return "utilization-weighted" }

// NeedsState implements Policy.
func (UtilizationWeighted) NeedsState() bool { return true }

// Route implements Policy.
//
//detlint:hotpath
func (UtilizationWeighted) Route(d *Decision) int {
	total := 0.0
	for i := range d.States {
		total += 1 / (1 + d.States[i].CPULoad + float64(d.Pending[i]))
	}
	u := d.RNG.Unit() * total
	cum := 0.0
	for i := range d.States {
		cum += 1 / (1 + d.States[i].CPULoad + float64(d.Pending[i]))
		if u < cum {
			return i
		}
	}
	return len(d.States) - 1 // float round-off on the last partial sum
}

// Affinity pins each stream to the instance its content seed hashes to
// (falling back to the stream name when the executor model carries no
// seed): every stream of one seed/bundle lineage lands on the same
// instance run after run, the placement a warm per-instance cache wants.
// Stateless — routing is a pure function of the stream itself.
type Affinity struct{}

// Name implements Policy.
func (Affinity) Name() string { return "affinity" }

// NeedsState implements Policy.
func (Affinity) NeedsState() bool { return false }

// Route implements Policy.
//
//detlint:hotpath
func (Affinity) Route(d *Decision) int {
	var key uint64
	switch e := d.Stream.Runner.Exec.(type) {
	case sim.Content:
		key = sim.Mix64(e.Seed)
	case *sim.FastContent:
		key = sim.Mix64(e.Seed)
	default:
		key = fleet.ForSubsystem(0, d.Stream.Name)
	}
	return int(key % uint64(len(d.Pending)))
}

// ParsePolicy builds a routing policy from its flag spelling:
//
//	round-robin    cycle arrivals across instances (the default)
//	least-backlog  fewest outstanding streams at the arrival instant
//	weighted       sample by remaining capacity (utilization-weighted)
//	affinity       pin streams to instances by content seed
func ParsePolicy(spec string) (Policy, error) {
	switch strings.TrimSpace(spec) {
	case "", "round-robin":
		return RoundRobin{}, nil
	case "least-backlog":
		return LeastBacklog{}, nil
	case "weighted", "utilization-weighted":
		return UtilizationWeighted{}, nil
	case "affinity":
		return Affinity{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown routing policy %q (want round-robin, least-backlog, weighted or affinity)", spec)
}
