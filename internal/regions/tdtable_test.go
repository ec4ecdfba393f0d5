package regions

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

func randSys(seed int64, cfg core.RandomSystemConfig) *core.System {
	return core.RandomSystem(rand.New(rand.NewSource(seed)), cfg)
}

func TestBuildTDTableMatchesReference(t *testing.T) {
	// The O(n) monotonic-stack builder must agree entry-for-entry with
	// the executable specification across many random systems,
	// including ones with dense and sparse deadlines.
	for seed := int64(0); seed < 40; seed++ {
		cfg := core.RandomSystemConfig{Actions: 30}
		if seed%3 == 1 {
			cfg.DeadlineEvery = 4
		}
		if seed%3 == 2 {
			cfg.DeadlineEvery = 1
		}
		sys := randSys(seed, cfg)
		fast := BuildTDTable(sys)
		ref := buildTDTableReference(sys)
		for q := core.Level(0); q <= sys.QMax(); q++ {
			for i := 0; i <= sys.NumActions(); i++ {
				if fast.TD(i, q) != ref.TD(i, q) {
					t.Fatalf("seed %d: tD[%v][%d]: fast %v, ref %v",
						seed, q, i, fast.TD(i, q), ref.TD(i, q))
				}
			}
		}
	}
}

// TestParallelTDTableMatchesSerial: BuildTDTable agrees with the
// reference evaluator on wider systems (60 actions, 8 levels), with and
// without deadlines. The name is kept from the retired parallel builder,
// whose levels ran as independent passes exactly as BuildTDTable's do.
func TestParallelTDTableMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		cfg := core.RandomSystemConfig{Actions: 60, Levels: 8}
		if seed%2 == 1 {
			cfg.DeadlineEvery = 7
		}
		sys := randSys(seed, cfg)
		tab := BuildTDTable(sys)
		ref := buildTDTableReference(sys)
		for q := core.Level(0); q <= sys.QMax(); q++ {
			for i := 0; i <= sys.NumActions(); i++ {
				if tab.TD(i, q) != ref.TD(i, q) {
					t.Fatalf("seed %d: tD[%v][%d] = %v, reference %v",
						seed, q, i, tab.TD(i, q), ref.TD(i, q))
				}
			}
		}
	}
}

func BenchmarkBuildTDTableSerial(b *testing.B) {
	sys := randSys(1, core.RandomSystemConfig{Actions: 5000, Levels: 16, DeadlineEvery: 100})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildTDTable(sys)
	}
}

func TestTDTableValidate(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		sys := randSys(seed, core.RandomSystemConfig{DeadlineEvery: 5})
		if err := BuildTDTable(sys).validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestTDTableEntryCountMatchesPaper(t *testing.T) {
	// §4.1: |A|·|Q| = 1189·7 = 8,323 integers for the encoder system.
	sys := randSys(1, core.RandomSystemConfig{Actions: 1189, Levels: 7})
	tab := BuildTDTable(sys)
	if got := tab.NumEntries(); got != 8323 {
		t.Fatalf("entries = %d, want 8323", got)
	}
	if tab.MemoryBytes() < 8323*8 {
		t.Fatalf("memory %d below payload size", tab.MemoryBytes())
	}
}

func TestProposition2(t *testing.T) {
	// Γ(s_i, t) = q  ⇔  t ∈ ( tD(s_i, q+1), tD(s_i, q) ]  (q < qmax)
	//             ⇔  t ∈ ( −∞,             tD(s_i, q) ]  (q = qmax),
	// where Γ is the *numeric* manager (independent implementation).
	for seed := int64(0); seed < 25; seed++ {
		sys := randSys(seed, core.RandomSystemConfig{Actions: 20, DeadlineEvery: 6})
		tab := BuildTDTable(sys)
		num := core.NewNumericManager(sys)
		for i := 0; i < sys.NumActions(); i++ {
			probes := []core.Time{0, 1}
			for q := core.Level(0); q <= sys.QMax(); q++ {
				if td := tab.TD(i, q); !td.IsInf() && td > 0 {
					probes = append(probes, td-1, td, td+1)
				}
			}
			for _, tm := range probes {
				got := num.Decide(i, tm).Q
				if !tab.InRegion(i, tm, got) {
					// The numeric fallback to qmin may land below
					// every region when even qmin fails; the region
					// partition only covers feasible times.
					if got == 0 && tab.TD(i, 0) < tm {
						continue
					}
					t.Fatalf("seed %d: Γ(%d, %v) = %v but state not in R_q", seed, i, tm, got)
				}
				// Uniqueness: no other region may contain the state.
				for q := core.Level(0); q <= sys.QMax(); q++ {
					if q != got && tab.InRegion(i, tm, q) {
						t.Fatalf("seed %d: state (%d, %v) in both R_%v and R_%v", seed, i, tm, got, q)
					}
				}
			}
		}
	}
}

func TestRegionsPartitionFeasibleTimes(t *testing.T) {
	// For any t ≤ tD(s_i, qmin), exactly one region contains (s_i, t).
	sys := randSys(99, core.RandomSystemConfig{Actions: 16, DeadlineEvery: 5})
	tab := BuildTDTable(sys)
	for i := 0; i < sys.NumActions(); i++ {
		max := tab.TD(i, 0)
		if max.IsInf() {
			continue
		}
		for tm := core.Time(0); tm <= max; tm += core.MaxTime(max/17, 1) {
			count := 0
			for q := core.Level(0); q <= sys.QMax(); q++ {
				if tab.InRegion(i, tm, q) {
					count++
				}
			}
			if count != 1 {
				t.Fatalf("state (%d, %v) in %d regions", i, tm, count)
			}
		}
	}
}

func TestChooseAgreesWithNumericManager(t *testing.T) {
	for seed := int64(50); seed < 65; seed++ {
		sys := randSys(seed, core.RandomSystemConfig{DeadlineEvery: 3})
		tab := BuildTDTable(sys)
		num := core.NewNumericManager(sys)
		rng := rand.New(rand.NewSource(seed * 7))
		for trial := 0; trial < 200; trial++ {
			i := rng.Intn(sys.NumActions())
			tm := core.Time(rng.Int63n(int64(2 * core.MaxTime(sys.LastDeadline(), 1))))
			q, _ := tab.Choose(i, tm)
			if want := num.Decide(i, tm).Q; q != want {
				t.Fatalf("seed %d: Choose(%d,%v) = %v, numeric %v", seed, i, tm, q, want)
			}
		}
	}
}

func TestIntervalBordersShared(t *testing.T) {
	// Adjacent regions share borders: hi of R_{q+1} equals lo of R_q.
	sys := randSys(3, core.RandomSystemConfig{DeadlineEvery: 4})
	tab := BuildTDTable(sys)
	for i := 0; i < sys.NumActions(); i++ {
		for q := core.Level(0); q < sys.QMax(); q++ {
			lo, _ := tab.Interval(i, q)
			_, hiAbove := tab.Interval(i, q+1)
			if lo != hiAbove {
				t.Fatalf("border mismatch at i=%d q=%v: %v vs %v", i, q, lo, hiAbove)
			}
		}
	}
}

// TestTDTableSerialisationRoundTrip: a bundle carries the digest of its
// tables instead of the tables, so the digest must be a function of the
// table alone — equal for the monotonic-stack and the reference build —
// and must notice a change to any single tD entry.
func TestTDTableSerialisationRoundTrip(t *testing.T) {
	sys := randSys(4, core.RandomSystemConfig{Actions: 18, DeadlineEvery: 5})
	tab := BuildTDTable(sys)
	want := MustBuildRelaxTables(tab, []int{1, 3}).Digest()
	ref := MustBuildRelaxTables(buildTDTableReference(sys), []int{1, 3})
	if got := ref.Digest(); got != want {
		t.Fatalf("reference build digests %016x, BuildTDTable %016x", got, want)
	}
	td := ref.TDTable().td
	for k := range td {
		td[k]++
		if ref.Digest() == want {
			t.Fatalf("digest unchanged after tD entry %d (i=%d q=%d) changed", k, k/tab.nq, k%tab.nq)
		}
		td[k]--
	}
	if ref.Digest() != want {
		t.Fatal("digest not restored with the table")
	}
}

// TestLoadTDTableRejectsMismatch: a bundle whose spec compiles to a
// different table fails the digest check, so different systems must
// digest differently.
func TestLoadTDTableRejectsMismatch(t *testing.T) {
	sys := randSys(5, core.RandomSystemConfig{Actions: 18, DeadlineEvery: 5})
	same := randSys(7, core.RandomSystemConfig{Actions: 18, DeadlineEvery: 5})
	other := randSys(6, core.RandomSystemConfig{Actions: 12, DeadlineEvery: 5})
	digest := func(s *core.System) uint64 { return MustBuildRelaxTables(BuildTDTable(s), []int{1}).Digest() }
	want := digest(sys)
	if digest(same) == want {
		t.Fatal("two systems of the same shape digest equal")
	}
	if digest(other) == want {
		t.Fatal("systems of different shapes digest equal")
	}
}

// TestLoadTDTableRejectsNonMonotone: the binary-search Choose is only
// correct on q/i-monotone tables, so validate must reject a table with
// two levels of one state swapped.
func TestLoadTDTableRejectsNonMonotone(t *testing.T) {
	sys := randSys(43, core.RandomSystemConfig{Actions: 12, DeadlineEvery: 3})
	tab := BuildTDTable(sys)
	if err := tab.validate(); err != nil {
		t.Fatal(err)
	}
	// Swap two levels of state 0: tD becomes increasing in q there.
	lo, hi := 0, tab.nq-1
	if tab.td[lo] == tab.td[hi] {
		tab.td[hi] = tab.td[lo] + 1
	} else {
		tab.td[lo], tab.td[hi] = tab.td[hi], tab.td[lo]
	}
	if err := tab.validate(); err == nil {
		t.Fatal("non-monotone table passed validate")
	}
}
