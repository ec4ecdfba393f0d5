package regions

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// planProbeTimes collects the adversarial time samples for state i: every
// breakpoint the plan could possibly key on (tD row values, relaxation
// interval borders) plus its two neighbours, so off-by-one segment
// boundaries cannot hide, plus a spread of ordinary times.
func planProbeTimes(td *TDTable, rt *RelaxTables, i int, rng *rand.Rand) []core.Time {
	var ts []core.Time
	add := func(v core.Time) {
		if v <= core.TimeNegInf || v >= core.TimeInf {
			return
		}
		ts = append(ts, v-1, v, v+1)
	}
	sys := td.Sys()
	for q := 0; q < sys.NumLevels(); q++ {
		add(td.TD(i, core.Level(q)))
		if rt != nil {
			for ri := range rt.Rho() {
				lo, hi := rt.Interval(i, core.Level(q), ri)
				add(lo)
				add(hi)
			}
		}
	}
	max := td.TD(i, 0)
	if !max.IsInf() && max > 0 {
		for k := 0; k < 8; k++ {
			ts = append(ts, core.Time(rng.Int63n(int64(max)+1)))
		}
	}
	ts = append(ts, 0, -5, core.TimeInf-1)
	return ts
}

// TestQuickPlanEqualsUncachedRelaxed is the decision-plan cache's
// acceptance property: on random bundles the plan-cached relaxed manager
// and the uncached table-probing manager agree on the full decision —
// quality, relaxation grant AND Work accounting — for every probed time,
// including the exact region borders and their neighbours. Work equality
// is what makes cached traces byte-identical to uncached ones under any
// overhead model.
func TestQuickPlanEqualsUncachedRelaxed(t *testing.T) {
	rho := []int{1, 2, 4, 8}
	f := func(seed int64, a, b, c byte) bool {
		sys := qsys(seed, a, b, c)
		td := BuildTDTable(sys)
		rt := MustBuildRelaxTables(td, rho)
		cached := NewRelaxedManager(rt)
		uncached := NewRelaxedManagerUncached(rt)
		rng := rand.New(rand.NewSource(seed ^ 0x5f5f))
		for i := 0; i < sys.NumActions(); i++ {
			for _, tm := range planProbeTimes(td, rt, i, rng) {
				if cached.Decide(i, tm) != uncached.Decide(i, tm) {
					t.Logf("state %d t=%v: cached %+v uncached %+v",
						i, tm, cached.Decide(i, tm), uncached.Decide(i, tm))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPlanEqualsUncachedSymbolic is the same property for the pure
// quality-region manager (Steps ≡ 1, Work = Choose probes only).
func TestQuickPlanEqualsUncachedSymbolic(t *testing.T) {
	f := func(seed int64, a, b, c byte) bool {
		sys := qsys(seed, a, b, c)
		td := BuildTDTable(sys)
		cached := NewSymbolicManager(td)
		uncached := newSymbolicManagerUncached(td)
		rng := rand.New(rand.NewSource(seed ^ 0x1bd1))
		for i := 0; i < sys.NumActions(); i++ {
			for _, tm := range planProbeTimes(td, nil, i, rng) {
				if cached.Decide(i, tm) != uncached.Decide(i, tm) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanSharedAndLazy: the plan is built once per table, the same
// pointer is served to every manager, and building is concurrency-safe
// (the fleet's first cycle races many streams into the first Decide;
// run with -race this test is the guard).
func TestPlanSharedAndLazy(t *testing.T) {
	sys := core.RandomSystem(rand.New(rand.NewSource(11)), core.RandomSystemConfig{Actions: 40, Levels: 5, DeadlineEvery: 3})
	td := BuildTDTable(sys)
	rt := MustBuildRelaxTables(td, []int{1, 3, 9})
	done := make(chan *DecisionPlan, 8)
	for k := 0; k < 8; k++ {
		go func() { done <- rt.Plan() }()
	}
	first := <-done
	for k := 1; k < 8; k++ {
		if p := <-done; p != first {
			t.Fatal("concurrent Plan calls returned distinct plans")
		}
	}
	if rt.Plan() != first {
		t.Fatal("Plan must be memoized")
	}
	if td.Plan() == nil || td.Plan() != td.Plan() {
		t.Fatal("TDTable plan must be memoized")
	}
	if first.NumStates() != sys.NumActions() {
		t.Fatalf("plan covers %d states, want %d", first.NumStates(), sys.NumActions())
	}
	if first.NumSegments() <= sys.NumActions() {
		t.Fatal("plan should hold at least one segment per state")
	}
	if first.MemoryBytes() <= 0 {
		t.Fatal("plan memory must be positive")
	}
}

// TestPlanDecideAllocationFree: steady-state Decide through the plan
// must not touch the heap, or the fleet hot path would lose its
// 0 allocs/op guarantee.
func TestPlanDecideAllocationFree(t *testing.T) {
	sys := core.RandomSystem(rand.New(rand.NewSource(4)), core.RandomSystemConfig{Actions: 60, Levels: 6, DeadlineEvery: 4})
	rt := MustBuildRelaxTables(BuildTDTable(sys), []int{1, 2, 5})
	m := NewRelaxedManager(rt)
	m.Decide(0, 0) // force the lazy build outside the measurement
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < sys.NumActions(); i++ {
			m.Decide(i, core.Time(i)*1000)
		}
	})
	if avg != 0 {
		t.Fatalf("plan Decide allocates %v times per sweep, want 0", avg)
	}
}
