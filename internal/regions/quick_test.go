package regions

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func qsys(seed int64, a, b, c byte) *core.System {
	return core.RandomSystem(rand.New(rand.NewSource(seed)), core.RandomSystemConfig{
		Actions:       int(a%24) + 2,
		Levels:        int(b%6) + 2,
		DeadlineEvery: int(c % 6),
	})
}

// TestQuickRegionPartition: for any state and any feasible time, exactly
// one quality region contains it (Proposition 2 makes the regions a
// partition of the feasible half-plane).
func TestQuickRegionPartition(t *testing.T) {
	f := func(seed int64, a, b, c byte, stateRaw uint8, frac float64) bool {
		sys := qsys(seed, a, b, c)
		tab := BuildTDTable(sys)
		i := int(stateRaw) % sys.NumActions()
		max := tab.TD(i, 0)
		if max.IsInf() || max <= 0 {
			return true
		}
		frac = unitFrac(frac)
		tm := core.Time(frac * float64(max))
		count := 0
		for q := core.Level(0); q <= sys.QMax(); q++ {
			if tab.InRegion(i, tm, q) {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRelaxationSound: a fuzzed version of Proposition 3 — any
// granted relaxation replayed under a random execution draw yields the
// same choices the numeric manager would have made.
func TestQuickRelaxationSound(t *testing.T) {
	rho := []int{1, 2, 4, 8}
	f := func(seed int64, a, b, c byte, stateRaw uint8, frac float64, execSeed int64) bool {
		sys := qsys(seed, a, b, c)
		tab := BuildTDTable(sys)
		rt := MustBuildRelaxTables(tab, rho)
		num := core.NewNumericManager(sys)
		i := int(stateRaw) % sys.NumActions()
		max := tab.TD(i, 0)
		if max.IsInf() || max <= 0 {
			return true
		}
		frac = unitFrac(frac)
		tm := core.Time(frac * float64(max))
		q, _ := tab.Choose(i, tm)
		r, _ := rt.Steps(i, tm, q)
		rng := rand.New(rand.NewSource(execSeed))
		cur := tm
		for j := i; j < i+r; j++ {
			if num.Decide(j, cur).Q != q {
				return false
			}
			wc := sys.WC(j, q)
			if wc > 0 {
				cur += core.Time(rng.Int63n(int64(wc) + 1))
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBuildersAgree: the monotonic-stack and reference table
// builders coincide on fuzzed systems.
func TestQuickBuildersAgree(t *testing.T) {
	f := func(seed int64, a, b, c byte) bool {
		sys := qsys(seed, a, b, c)
		s := BuildTDTable(sys)
		r := buildTDTableReference(sys)
		for q := core.Level(0); q <= sys.QMax(); q++ {
			for i := 0; i <= sys.NumActions(); i++ {
				if s.TD(i, q) != r.TD(i, q) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// unitFrac maps an arbitrary fuzzed float into [0, 1), treating
// non-finite values as 0.5.
func unitFrac(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0.5
	}
	f = math.Abs(f)
	return f - math.Floor(f)
}
