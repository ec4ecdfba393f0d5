// Package speed implements the speed diagrams of §3: a two-dimensional
// representation of a controlled system's state where the horizontal axis
// is actual time and the vertical axis is virtual time computed from the
// average execution-time function. In this space, the mixed quality
// management policy reads geometrically (Proposition 1): the manager picks
// the maximal quality whose *ideal speed* still exceeds the *optimal
// speed* at the current point.
package speed

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Diagram evaluates speed-diagram quantities of a parameterized system
// with respect to a fixed target deadline action a_k.
type Diagram struct {
	sys *core.System
	k   int // target deadline action index
}

// NewDiagram builds a diagram targeting the deadline carried by action k.
// It fails if a_k has no finite deadline.
func NewDiagram(sys *core.System, k int) (*Diagram, error) {
	if k < 0 || k >= sys.NumActions() {
		return nil, fmt.Errorf("speed: action index %d out of range", k)
	}
	if !sys.Action(k).HasDeadline() {
		return nil, fmt.Errorf("speed: action %d has no deadline", k)
	}
	// The diagram normalises virtual time by Cav(a_0..a_k, q); a zero
	// total average workload would break the normalisation (and makes
	// quality management pointless anyway).
	for q := core.Level(0); q <= sys.QMax(); q++ {
		if sys.AvPrefix(k+1, q) == 0 {
			return nil, fmt.Errorf("speed: zero total average workload at level %v", q)
		}
	}
	return &Diagram{sys: sys, k: k}, nil
}

// NewFinalDiagram targets the last deadline of the system, the usual
// choice for a cyclically executed frame system with one global deadline.
func NewFinalDiagram(sys *core.System) (*Diagram, error) {
	idx := sys.DeadlineIndices()
	return NewDiagram(sys, idx[len(idx)-1])
}

// Target returns the index of the deadline action the diagram refers to.
func (d *Diagram) Target() int { return d.k }

// Deadline returns D(a_k), the available time budget.
func (d *Diagram) Deadline() core.Time { return d.sys.Action(d.k).Deadline }

// VirtualTime returns y_i(q), the virtual time at state i (after actions
// 0..i-1 have completed) for uniform quality q:
//
//	y_i(q) = Cav(a_0..a_{i-1}, q) / Cav(a_0..a_k, q) · D(a_k)
//
// i.e. the fraction of the average workload consumed, scaled to the time
// budget. By construction y_{k+1}(q) = D(a_k) for every q. The result is
// a float because the normalisation is a ratio.
func (d *Diagram) VirtualTime(i int, q core.Level) float64 {
	total := d.sys.AvPrefix(d.k+1, q)
	if total == 0 {
		// Zero average workload: every state is already "done".
		return float64(d.Deadline())
	}
	return float64(d.sys.AvPrefix(i, q)) / float64(total) * float64(d.Deadline())
}

// IdealSpeed returns v_idl(q) = D(a_k) / Cav(a_0..a_k, q): the constant
// slope of the trajectory when every action runs exactly at its average
// time with uniform quality q. It is independent of the state (§3.1.2).
func (d *Diagram) IdealSpeed(q core.Level) float64 {
	total := d.sys.AvPrefix(d.k+1, q)
	if total == 0 {
		return math.Inf(1)
	}
	return float64(d.Deadline()) / float64(total)
}

// OptimalSpeed returns v_opt(q) at state (i, t): the slope of the vector
// from the current point (t, y_i(q)) to the target point
// (D(a_k) − δmax(a_{i}..a_k, q), D(a_k)) — the deadline shifted left by
// the mixed policy's safety margin. Positive infinity is returned when
// the remaining real-time budget (denominator) is non-positive, meaning
// no finite speed can reach the target in time.
//
// Note on indexing: the paper writes δmax(a_{i+1}..a_k, q) for the margin
// of the *remaining* actions after state s_i; with this package's 0-based
// states (state i precedes action i) the remaining window is a_i..a_k.
func (d *Diagram) OptimalSpeed(i int, t core.Time, q core.Level) float64 {
	margin := d.sys.DeltaMax(i, d.k, q)
	den := float64(d.Deadline()) - float64(margin) - float64(t)
	rem := d.sys.AvRange(i, d.k, q)
	switch {
	case den > 0:
		// v_opt = D/Cav(a_0..a_k,q) · Cav(a_i..a_k,q) / (D − δmax − t)
		//       = (y_{k+1} − y_i) / (D − δmax − t), both forms equal.
		return (float64(d.Deadline()) - d.VirtualTime(i, q)) / den
	case rem == 0 && den == 0:
		// No remaining average workload and no remaining budget:
		// the target point coincides with the current point.
		return 0
	default:
		return math.Inf(1)
	}
}

// ConstraintHolds reports the right-hand side of Proposition 1 for the
// diagram's target deadline: D(a_k) − CD(a_i..a_k, q) ≥ t. Proposition 1
// states this is equivalent to IdealSpeed(q) ≥ OptimalSpeed(i, t, q);
// the equivalence is property-tested, not assumed.
func (d *Diagram) ConstraintHolds(i int, t core.Time, q core.Level) bool {
	return d.Deadline()-d.sys.CD(i, d.k, q) >= t
}

// SpeedOrder reports whether v_idl(q) ≥ v_opt(q) at state (i, t) — the
// left-hand side of Proposition 1. The comparison is evaluated in exact
// integer arithmetic: with den = D − δmax(a_i..a_k,q) − t and
// rem = Cav(a_i..a_k,q),
//
//	v_idl ≥ v_opt  ⇔  D/Cav(a_0..a_k)·den ≥ D/Cav(a_0..a_k)·rem  ⇔  den ≥ rem
//
// when den > 0, and v_opt is infinite otherwise (except for the
// degenerate point target den = rem = 0 where v_opt = 0). Using the
// rational form avoids float64 ties at the exact region boundary, where
// the two divisions can disagree in the last ulp.
func (d *Diagram) SpeedOrder(i int, t core.Time, q core.Level) bool {
	den := d.Deadline() - d.sys.DeltaMax(i, d.k, q) - t
	rem := d.sys.AvRange(i, d.k, q)
	if den > 0 {
		return den >= rem
	}
	return rem == 0 && den == 0
}

// Point is one trajectory sample in the diagram plane.
type Point struct {
	State   int       // state index i
	Actual  core.Time // t_i, actual elapsed time
	Virtual float64   // y_i(q) at the reference quality
	Q       core.Level
}

// Trajectory maps an executed (state, time, quality) sequence into diagram
// points. states[j] is the state index reached at times[j] with the
// quality chosen at that state; refQ fixes the virtual-time normalisation
// (the diagram plots y_i(refQ) so that a uniform-quality run at refQ is a
// straight line).
func (d *Diagram) Trajectory(states []int, times []core.Time, quals []core.Level, refQ core.Level) []Point {
	pts := make([]Point, 0, len(states))
	for j, st := range states {
		q := refQ
		if j < len(quals) {
			q = quals[j]
		}
		pts = append(pts, Point{
			State:   st,
			Actual:  times[j],
			Virtual: d.VirtualTime(st, refQ),
			Q:       q,
		})
	}
	return pts
}

// slope returns the speed v_{i,j}(q) between two diagram points, i.e.
// Δvirtual / Δactual. Infinite when the actual times coincide.
func slope(a, b Point) float64 {
	dt := float64(b.Actual - a.Actual)
	if dt == 0 {
		return float64(core.TimeInf)
	}
	return (b.Virtual - a.Virtual) / dt
}
