package speed

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// evenSystem builds a 6-action, 3-level system with uniform per-action
// times so virtual time is easy to hand-check. Deadline 60µs on the last
// action.
func evenSystem(t *testing.T) *core.System {
	t.Helper()
	tt := core.NewTimingTable(6, 3)
	for i := 0; i < 6; i++ {
		for q := 0; q < 3; q++ {
			av := core.Time(4+2*q) * core.Microsecond
			tt.Set(i, core.Level(q), av, av*2)
		}
	}
	actions := make([]core.Action, 6)
	for i := range actions {
		actions[i] = core.Action{Name: "a", Deadline: core.TimeInf}
	}
	actions[5].Deadline = 60 * core.Microsecond
	return core.MustNewSystem(actions, tt)
}

func TestNewDiagramValidation(t *testing.T) {
	s := evenSystem(t)
	if _, err := NewDiagram(s, -1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := NewDiagram(s, 6); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := NewDiagram(s, 2); err == nil {
		t.Error("deadline-free action accepted")
	}
	d, err := NewDiagram(s, 5)
	if err != nil {
		t.Fatalf("valid diagram rejected: %v", err)
	}
	if d.Target() != 5 || d.Deadline() != 60*core.Microsecond {
		t.Fatalf("target %d deadline %v", d.Target(), d.Deadline())
	}
}

func TestNewFinalDiagram(t *testing.T) {
	s := evenSystem(t)
	d, err := NewFinalDiagram(s)
	if err != nil {
		t.Fatal(err)
	}
	if d.Target() != 5 {
		t.Fatalf("final diagram targets %d", d.Target())
	}
}

func TestNewDiagramRejectsZeroWorkload(t *testing.T) {
	tt := core.NewTimingTable(2, 2)
	// All-zero average times.
	for i := 0; i < 2; i++ {
		for q := 0; q < 2; q++ {
			tt.Set(i, core.Level(q), 0, core.Microsecond)
		}
	}
	actions := []core.Action{{Deadline: core.TimeInf}, {Deadline: 5 * core.Microsecond}}
	s := core.MustNewSystem(actions, tt)
	if _, err := NewDiagram(s, 1); err == nil {
		t.Fatal("zero-workload system accepted")
	}
}

func TestVirtualTimeEndpoints(t *testing.T) {
	s := evenSystem(t)
	d, _ := NewDiagram(s, 5)
	for q := core.Level(0); q <= s.QMax(); q++ {
		if y := d.VirtualTime(0, q); y != 0 {
			t.Fatalf("y_0(%v) = %v, want 0", q, y)
		}
		if y := d.VirtualTime(6, q); math.Abs(y-float64(d.Deadline())) > 1e-9 {
			t.Fatalf("y_n(%v) = %v, want %v", q, y, float64(d.Deadline()))
		}
	}
}

func TestVirtualTimeUniformSteps(t *testing.T) {
	// With identical per-action averages, y advances by D/n per state.
	s := evenSystem(t)
	d, _ := NewDiagram(s, 5)
	step := float64(60*core.Microsecond) / 6
	for i := 0; i <= 6; i++ {
		want := step * float64(i)
		if y := d.VirtualTime(i, 1); math.Abs(y-want) > 1e-6 {
			t.Fatalf("y_%d = %v, want %v", i, y, want)
		}
	}
}

func TestIdealSpeedIndependentOfState(t *testing.T) {
	// §3.1.2: v_idl only depends on q and the target deadline. With the
	// even system: Cav(all, q=0) = 24µs, D = 60µs → v_idl = 2.5.
	s := evenSystem(t)
	d, _ := NewDiagram(s, 5)
	if v := d.IdealSpeed(0); math.Abs(v-2.5) > 1e-12 {
		t.Fatalf("v_idl(0) = %v, want 2.5", v)
	}
	// q=2: Cav = 48µs → v_idl = 1.25.
	if v := d.IdealSpeed(2); math.Abs(v-1.25) > 1e-12 {
		t.Fatalf("v_idl(2) = %v, want 1.25", v)
	}
}

func TestIdealSpeedDecreasesWithQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		s := core.RandomSystem(rng, core.RandomSystemConfig{MaxAv: 900})
		d, err := NewFinalDiagram(s)
		if err != nil {
			continue // zero-workload draw
		}
		for q := core.Level(1); q <= s.QMax(); q++ {
			if d.IdealSpeed(q) > d.IdealSpeed(q-1)+1e-12 {
				t.Fatalf("v_idl increasing in q at %v", q)
			}
		}
	}
}

func TestProposition1Equivalence(t *testing.T) {
	// v_idl(q) ≥ v_opt(q) ⇔ D(a_k) − CD(a_i..a_k, q) ≥ t_i,
	// with both sides computed independently.
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 60; trial++ {
		s := core.RandomSystem(rng, core.RandomSystemConfig{Actions: 18, DeadlineEvery: 7})
		d, err := NewFinalDiagram(s)
		if err != nil {
			continue
		}
		D := d.Deadline()
		for i := 0; i <= d.Target(); i++ {
			for q := core.Level(0); q <= s.QMax(); q++ {
				// Probe around the constraint boundary and far from it.
				boundary := D - s.CD(i, d.Target(), q)
				for _, tm := range []core.Time{0, boundary - 1, boundary, boundary + 1, D, D * 2} {
					if tm < 0 {
						continue
					}
					lhs := d.SpeedOrder(i, tm, q)
					rhs := d.ConstraintHolds(i, tm, q)
					if lhs != rhs {
						t.Fatalf("trial %d: Prop1 violated at i=%d q=%v t=%v: speeds %v constraint %v (v_idl=%v v_opt=%v)",
							trial, i, q, tm, lhs, rhs, d.IdealSpeed(q), d.OptimalSpeed(i, tm, q))
					}
				}
			}
		}
	}
}

func TestSpeedOrderMatchesFloatSpeedsAwayFromBoundary(t *testing.T) {
	// The exact integer SpeedOrder must agree with the float64 speed
	// comparison whenever the two speeds are well separated.
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		s := core.RandomSystem(rng, core.RandomSystemConfig{Actions: 14})
		d, err := NewFinalDiagram(s)
		if err != nil {
			continue
		}
		for i := 0; i <= d.Target(); i++ {
			for q := core.Level(0); q <= s.QMax(); q++ {
				for _, tm := range []core.Time{0, d.Deadline() / 3, d.Deadline()} {
					vi, vo := d.IdealSpeed(q), d.OptimalSpeed(i, tm, q)
					if math.IsInf(vo, 1) {
						continue
					}
					rel := math.Abs(vi-vo) / max(vi, 1e-30)
					if rel < 1e-9 {
						continue // too close to trust floats
					}
					if got, want := d.SpeedOrder(i, tm, q), vi >= vo; got != want {
						t.Fatalf("SpeedOrder=%v but v_idl=%v v_opt=%v at i=%d q=%v t=%v",
							got, vi, vo, i, q, tm)
					}
				}
			}
		}
	}
}

func TestOptimalSpeedGrowsWithLateness(t *testing.T) {
	// Arriving later at the same state demands a faster optimal speed.
	s := evenSystem(t)
	d, _ := NewDiagram(s, 5)
	prev := -1.0
	for tm := core.Time(0); tm < 40*core.Microsecond; tm += 2 * core.Microsecond {
		v := d.OptimalSpeed(2, tm, 1)
		if v < prev {
			t.Fatalf("v_opt decreased with lateness at t=%v", tm)
		}
		prev = v
	}
}

func TestOptimalSpeedDegenerateCases(t *testing.T) {
	s := evenSystem(t)
	d, _ := NewDiagram(s, 5)
	// Far past the deadline: no finite speed reaches the target.
	if v := d.OptimalSpeed(2, 10*60*core.Microsecond, 1); !math.IsInf(v, 1) {
		t.Fatalf("v_opt past deadline = %v, want +inf", v)
	}
}

func TestTrajectoryAndSlope(t *testing.T) {
	s := evenSystem(t)
	d, _ := NewDiagram(s, 5)
	states := []int{0, 1, 2}
	times := []core.Time{0, 5 * core.Microsecond, 9 * core.Microsecond}
	quals := []core.Level{1, 1, 2}
	pts := d.Trajectory(states, times, quals, 1)
	if len(pts) != 3 {
		t.Fatalf("trajectory length %d", len(pts))
	}
	if pts[2].Q != 2 || pts[2].State != 2 {
		t.Fatalf("point 2 = %+v", pts[2])
	}
	// Slope between first two points: Δy = 10µs-equivalent, Δt = 5µs → 2.
	sl := slope(pts[0], pts[1])
	if math.Abs(sl-2.0) > 1e-9 {
		t.Fatalf("slope = %v, want 2", sl)
	}
	if !math.IsInf(slope(pts[0], pts[0]), 1) && slope(pts[0], pts[0]) != float64(core.TimeInf) {
		t.Fatalf("zero-Δt slope should be infinite-like, got %v", slope(pts[0], pts[0]))
	}
}

func TestTrajectoryDefaultQuality(t *testing.T) {
	s := evenSystem(t)
	d, _ := NewDiagram(s, 5)
	pts := d.Trajectory([]int{0, 1}, []core.Time{0, 1}, nil, 2)
	if pts[0].Q != 2 || pts[1].Q != 2 {
		t.Fatal("missing qualities must default to refQ")
	}
}
