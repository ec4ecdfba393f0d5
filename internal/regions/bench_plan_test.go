package regions

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// benchTables builds an encoder-scale system (1,189 actions, 7 levels,
// the paper's ρ) so the Decide benchmarks see realistic row lengths and
// cache footprints.
func benchTables(b *testing.B) *RelaxTables {
	b.Helper()
	sys := core.RandomSystem(rand.New(rand.NewSource(1)), core.RandomSystemConfig{
		Actions:       1189,
		Levels:        7,
		DeadlineEvery: 12,
	})
	td := BuildTDTable(sys)
	rt, err := BuildRelaxTables(td, []int{1, 10, 20, 30, 40, 50})
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

// benchDecide sweeps the manager across all states at in-region times,
// the access pattern of one simulated cycle.
func benchDecide(b *testing.B, m core.Manager, rt *RelaxTables) {
	sys := rt.TDTable().Sys()
	n := sys.NumActions()
	times := make([]core.Time, n)
	for i := 0; i < n; i++ {
		if max := rt.TDTable().TD(i, 0); !max.IsInf() && max > 0 {
			times[i] = core.Time(uint64(i*2654435761) % uint64(max))
		}
	}
	m.Decide(0, 0) // build the plan outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		i := k % n
		sinkDecision = m.Decide(i, times[i])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/decide")
}

var sinkDecision core.Decision // defeats dead-code elimination

// E12a — the uncached relaxed decision: Choose binary search plus the
// descending relaxation probe over three-level nested slices. This is
// the per-decision baseline the plan cache is measured against.
func BenchmarkDecideRelaxedUncached(b *testing.B) {
	rt := benchTables(b)
	benchDecide(b, NewRelaxedManagerUncached(rt), rt)
}

// E12b — the plan-cached relaxed decision: one binary search over the
// state's contiguous slack-segment row, one indexed load. The ratio to
// E12a is the decision-plan cache's isolated contribution to the fleet
// ns/action budget.
func BenchmarkDecideRelaxedCached(b *testing.B) {
	rt := benchTables(b)
	benchDecide(b, NewRelaxedManager(rt), rt)
}

// E12c/E12d — the same pair for the pure symbolic manager.
func BenchmarkDecideSymbolicUncached(b *testing.B) {
	rt := benchTables(b)
	benchDecide(b, newSymbolicManagerUncached(rt.TDTable()), rt)
}

func BenchmarkDecideSymbolicCached(b *testing.B) {
	rt := benchTables(b)
	benchDecide(b, NewSymbolicManager(rt.TDTable()), rt)
}
