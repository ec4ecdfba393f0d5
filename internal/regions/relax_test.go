package regions

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestBuildRelaxTablesValidation(t *testing.T) {
	sys := randSys(1, core.RandomSystemConfig{DeadlineEvery: 4})
	tab := BuildTDTable(sys)
	if _, err := BuildRelaxTables(tab, nil); err == nil {
		t.Error("empty rho accepted")
	}
	if _, err := BuildRelaxTables(tab, []int{2, 5}); err == nil {
		t.Error("rho without 1 accepted")
	}
	if _, err := BuildRelaxTables(tab, []int{1, 0}); err == nil {
		t.Error("non-positive step accepted")
	}
	rt, err := BuildRelaxTables(tab, []int{5, 1, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Rho(); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("rho = %v, want [1 3 5]", got)
	}
	// Bundles are compiled from specs read from outside: |ρ| is capped
	// before any row is allocated, and a step longer than the cycle
	// builds empty rows instead of sizing a buffer by the step.
	rho := make([]int, maxRelaxSteps+1)
	for i := range rho {
		rho[i] = i + 1
	}
	if _, err := BuildRelaxTables(tab, rho[:maxRelaxSteps]); err != nil {
		t.Errorf("|rho| at the limit rejected: %v", err)
	}
	if _, err := BuildRelaxTables(tab, rho); err == nil || !strings.Contains(err.Error(), "33 steps, limit is 32") {
		t.Errorf("|rho| above the limit: %v", err)
	}
	if rt, err = BuildRelaxTables(tab, []int{1, math.MaxInt}); err != nil {
		t.Fatal(err)
	}
	if rt.InRegion(0, 0, 0, 1) {
		t.Error("a step longer than the cycle admitted a relaxation")
	}
}

func TestRelaxTablesEntryCountMatchesPaper(t *testing.T) {
	// §4.1: 2·|A|·|Q|·|ρ| = 2·1189·7·6 = 99,876 integers.
	sys := randSys(2, core.RandomSystemConfig{Actions: 1189, Levels: 7})
	rt := MustBuildRelaxTables(BuildTDTable(sys), []int{1, 10, 20, 30, 40, 50})
	if got := rt.NumEntries(); got != 99876 {
		t.Fatalf("entries = %d, want 99876", got)
	}
	if rt.MemoryBytes() != 99876*8 {
		t.Fatalf("memory = %d", rt.MemoryBytes())
	}
}

// relaxByDefinition evaluates the r-step relaxation interval of state i
// at level q directly from the tD table: the upper bound is the
// Proposition 3 formula, min over j ∈ [i, i+r-1] of
// tD(s_j, q) − Cwc(a_i..a_{j-1}, q); the lower bound is tD(s_{i+r-1}, q+1),
// or -inf at qmax. A state with fewer than r actions left has the empty
// interval (-inf, -inf].
func relaxByDefinition(tab *TDTable, i int, q core.Level, r int) (lo, hi core.Time) {
	sys := tab.Sys()
	if i+r > sys.NumActions() {
		return core.TimeNegInf, core.TimeNegInf
	}
	hi = core.TimeInf
	for j := i; j <= i+r-1; j++ {
		v := tab.TD(j, q)
		if !v.IsInf() {
			v -= sys.WCRange(i, j-1, q)
		}
		hi = core.MinTime(hi, v)
	}
	lo = core.TimeNegInf
	if q < sys.QMax() {
		lo = tab.TD(i+r-1, q+1)
	}
	return lo, hi
}

func TestRelaxUpperMatchesDefinition(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		sys := randSys(seed, core.RandomSystemConfig{Actions: 25, DeadlineEvery: 7})
		tab := BuildTDTable(sys)
		rho := []int{1, 2, 3, 5, 8}
		rt := MustBuildRelaxTables(tab, rho)
		n := sys.NumActions()
		for q := core.Level(0); q <= sys.QMax(); q++ {
			for ri, r := range rho {
				for i := 0; i+r <= n; i++ {
					_, want := relaxByDefinition(tab, i, q, r)
					if _, hi := rt.Interval(i, q, ri); hi != want {
						t.Fatalf("seed %d: upper[%v][r=%d][%d] = %v, want %v", seed, q, r, i, hi, want)
					}
				}
			}
		}
	}
}

func TestRelaxLowerMatchesDefinition(t *testing.T) {
	sys := randSys(30, core.RandomSystemConfig{Actions: 25, DeadlineEvery: 6})
	tab := BuildTDTable(sys)
	rho := []int{1, 4, 7}
	rt := MustBuildRelaxTables(tab, rho)
	n := sys.NumActions()
	for q := core.Level(0); q <= sys.QMax(); q++ {
		for ri, r := range rho {
			for i := 0; i+r <= n; i++ {
				want, _ := relaxByDefinition(tab, i, q, r)
				if lo, _ := rt.Interval(i, q, ri); lo != want {
					t.Fatalf("lower[%v][r=%d][%d] = %v, want %v", q, r, i, lo, want)
				}
			}
		}
	}
}

// TestParallelRelaxTablesMatchSerial: on wider random systems, every
// interval BuildRelaxTables stores — the empty ones near the cycle end
// included — equals relaxByDefinition. The name is kept from the retired
// parallel builder.
func TestParallelRelaxTablesMatchSerial(t *testing.T) {
	rho := []int{1, 3, 9, 17}
	for seed := int64(0); seed < 12; seed++ {
		sys := randSys(seed, core.RandomSystemConfig{Actions: 50, DeadlineEvery: 11})
		tab := BuildTDTable(sys)
		rt := MustBuildRelaxTables(tab, rho)
		for q := core.Level(0); q <= sys.QMax(); q++ {
			for ri, r := range rho {
				for i := 0; i < sys.NumActions(); i++ {
					wlo, whi := relaxByDefinition(tab, i, q, r)
					if lo, hi := rt.Interval(i, q, ri); lo != wlo || hi != whi {
						t.Fatalf("seed %d: q=%v r=%d i=%d: interval (%v, %v], definition (%v, %v]",
							seed, q, r, i, lo, hi, wlo, whi)
					}
				}
			}
		}
	}
}

// TestParallelRelaxTablesValidation: BuildRelaxTables rejects a
// relaxation set without the single step.
func TestParallelRelaxTablesValidation(t *testing.T) {
	sys := randSys(3, core.RandomSystemConfig{DeadlineEvery: 5})
	tab := BuildTDTable(sys)
	if _, err := BuildRelaxTables(tab, []int{2}); err == nil {
		t.Fatal("rho without 1 accepted")
	}
}

func TestRelaxRegionsNested(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		sys := randSys(seed, core.RandomSystemConfig{Actions: 30, DeadlineEvery: 5})
		rt := MustBuildRelaxTables(BuildTDTable(sys), []int{1, 2, 4, 8})
		if err := rt.validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRelaxRegionEmptyNearCycleEnd(t *testing.T) {
	sys := randSys(8, core.RandomSystemConfig{Actions: 10, DeadlineEvery: 3})
	rt := MustBuildRelaxTables(BuildTDTable(sys), []int{1, 4})
	n := sys.NumActions()
	for i := n - 3; i < n; i++ {
		// r = 4 does not fit after state n−4.
		if rt.InRegion(i, 0, 0, 1) || rt.InRegion(i, core.Time(1), sys.QMax(), 1) {
			t.Fatalf("state %d admitted 4-step relaxation in a %d-action cycle", i, n)
		}
	}
}

// TestProposition3Conservative is the heart of the relaxation soundness
// claim: whenever (s_i, t) ∈ R^r_q, running the next r actions at quality
// q with ANY execution-time draw bounded by Cwc keeps every intermediate
// state inside R_q — i.e. the numeric manager would have chosen q at each
// of the skipped states.
func TestProposition3Conservative(t *testing.T) {
	rho := []int{1, 2, 3, 5, 8, 13}
	for seed := int64(0); seed < 30; seed++ {
		sys := randSys(seed, core.RandomSystemConfig{Actions: 26, DeadlineEvery: 9})
		tab := BuildTDTable(sys)
		rt := MustBuildRelaxTables(tab, rho)
		num := core.NewNumericManager(sys)
		rng := rand.New(rand.NewSource(seed + 1000))
		n := sys.NumActions()

		for trial := 0; trial < 120; trial++ {
			i := rng.Intn(n)
			// Sample a time inside the chosen quality's region.
			maxT := tab.TD(i, 0)
			if maxT.IsInf() {
				maxT = sys.LastDeadline()
			}
			if maxT <= 0 {
				continue
			}
			tm := core.Time(rng.Int63n(int64(maxT)))
			q, _ := tab.Choose(i, tm)
			r, _ := rt.Steps(i, tm, q)
			if r == 1 {
				continue
			}
			// Re-execute the r relaxed steps with three adversarial
			// draws: all-zero, all-worst-case, and random ≤ Cwc.
			for mode := 0; mode < 3; mode++ {
				cur := tm
				for j := i; j < i+r; j++ {
					if d := num.Decide(j, cur); d.Q != q {
						t.Fatalf("seed %d: relaxation unsound: at (s_%d, %v) granted r=%d q=%v, but numeric picks %v at s_%d",
							seed, i, tm, r, q, d.Q, j)
					}
					var c core.Time
					switch mode {
					case 0:
						c = 0
					case 1:
						c = sys.WC(j, q)
					default:
						c = core.Time(rng.Int63n(int64(sys.WC(j, q)) + 1))
					}
					cur += c
				}
			}
		}
	}
}

func TestStepsAlwaysAtLeastOne(t *testing.T) {
	sys := randSys(77, core.RandomSystemConfig{Actions: 20, DeadlineEvery: 4})
	tab := BuildTDTable(sys)
	rt := MustBuildRelaxTables(tab, []int{1, 5, 9})
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 300; trial++ {
		i := rng.Intn(sys.NumActions())
		tm := core.Time(rng.Int63n(int64(2 * core.MaxTime(sys.LastDeadline(), 1))))
		q, _ := tab.Choose(i, tm)
		r, work := rt.Steps(i, tm, q)
		if r < 1 || work < 1 {
			t.Fatalf("Steps returned r=%d work=%d", r, work)
		}
		if i+r > sys.NumActions() {
			t.Fatalf("granted %d steps at state %d of %d", r, i, sys.NumActions())
		}
	}
}

// TestRelaxTablesSerialisationRoundTrip: the digest is equal for
// relaxation tables built over the monotonic-stack and the reference tD
// table of one system, and changes when any one upper or lower bound
// changes.
func TestRelaxTablesSerialisationRoundTrip(t *testing.T) {
	sys := randSys(40, core.RandomSystemConfig{Actions: 22, DeadlineEvery: 6})
	rt := MustBuildRelaxTables(BuildTDTable(sys), []int{1, 3, 7})
	ref := MustBuildRelaxTables(buildTDTableReference(sys), []int{1, 3, 7})
	want := rt.Digest()
	if got := ref.Digest(); got != want {
		t.Fatalf("build over the reference table digests %016x, over BuildTDTable %016x", got, want)
	}
	for q := range ref.upper {
		for ri := range ref.rho {
			for _, row := range [][]core.Time{ref.upper[q][ri], ref.lower[q][ri]} {
				for i := range row {
					row[i]++
					if ref.Digest() == want {
						t.Fatalf("digest unchanged after a bound changed at q=%d ri=%d i=%d", q, ri, i)
					}
					row[i]--
				}
			}
		}
	}
	if ref.Digest() != want {
		t.Fatal("digest not restored with the tables")
	}
}

// TestLoadRelaxTablesRejectsMismatch: the digest differs between the
// relaxation tables of two systems, and between two ρ sets over one
// system.
func TestLoadRelaxTablesRejectsMismatch(t *testing.T) {
	sys := randSys(41, core.RandomSystemConfig{Actions: 22, DeadlineEvery: 6})
	other := randSys(42, core.RandomSystemConfig{Actions: 22, DeadlineEvery: 6})
	tab := BuildTDTable(sys)
	want := MustBuildRelaxTables(tab, []int{1, 2}).Digest()
	if MustBuildRelaxTables(BuildTDTable(other), []int{1, 2}).Digest() == want {
		t.Fatal("two systems digest equal")
	}
	if MustBuildRelaxTables(tab, []int{1, 3}).Digest() == want {
		t.Fatal("two rho sets digest equal")
	}
	if MustBuildRelaxTables(tab, []int{1, 2, 5}).Digest() == want {
		t.Fatal("a wider rho set digests equal")
	}
}
