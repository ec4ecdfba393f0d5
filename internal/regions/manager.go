package regions

import (
	"repro/internal/core"
)

// SymbolicManager is the quality-region Quality Manager of §4.1: at each
// state it picks the quality from the pre-computed tD table
// (Proposition 2), replacing the numeric manager's O(n−i) policy
// evaluation per level with a handful of table reads. It still runs
// before every action (Steps = 1).
//
// In steady state it answers from the table's DecisionPlan — the
// memoized piecewise-constant decision function, built lazily on first
// use and shared read-only across every manager (and therefore every
// fleet stream) over the same table. The memo reproduces the uncached
// probe sequence's Work exactly, so overhead accounting and traces are
// byte-identical to the uncached path (property-tested).
type SymbolicManager struct {
	tab      *TDTable
	uncached bool
}

// NewSymbolicManager builds the quality-region manager from a tD table.
func NewSymbolicManager(tab *TDTable) *SymbolicManager {
	return &SymbolicManager{tab: tab}
}

// newSymbolicManagerUncached builds a manager that re-runs the Choose
// binary search on every call instead of consulting the decision plan:
// the executable specification the cached manager is property-tested
// against, and the baseline its speedup is benchmarked against.
func newSymbolicManagerUncached(tab *TDTable) *SymbolicManager {
	return &SymbolicManager{tab: tab, uncached: true}
}

// Name implements core.Manager.
func (m *SymbolicManager) Name() string { return "symbolic" }

// Table exposes the underlying tD table (for diagnostics and plots).
func (m *SymbolicManager) Table() *TDTable { return m.tab }

// Decide implements core.Manager.
func (m *SymbolicManager) Decide(i int, t core.Time) core.Decision {
	if m.uncached {
		q, work := m.tab.Choose(i, t)
		return core.Decision{Q: q, Steps: 1, Work: work}
	}
	return m.tab.Plan().Decide(i, t)
}

// RelaxedManager is the control-relaxation Quality Manager of §4.1: it
// picks the quality from the tD table, then probes the relaxation tables
// for the largest r ∈ ρ whose region R^r_q contains the current state,
// and asks the executor to skip the next r−1 manager invocations
// (Decision.Steps = r). Relaxation is conservative: the skipped
// invocations would have chosen the same quality (Proposition 3), which
// the cross-manager equivalence tests verify.
//
// Like the symbolic manager it answers from a lazily built, shared
// DecisionPlan; the plan folds the quality choice and the relaxation
// grant into one lookup while preserving the uncached Work accounting.
type RelaxedManager struct {
	tab      *TDTable
	relax    *RelaxTables
	uncached bool
}

// NewRelaxedManager builds the control-relaxation manager.
func NewRelaxedManager(relax *RelaxTables) *RelaxedManager {
	return &RelaxedManager{tab: relax.TDTable(), relax: relax}
}

// NewRelaxedManagerUncached builds a manager that probes the tD and
// relaxation tables on every call instead of consulting the decision
// plan: the executable specification the cached manager is
// property-tested against, and the benchmark baseline.
func NewRelaxedManagerUncached(relax *RelaxTables) *RelaxedManager {
	return &RelaxedManager{tab: relax.TDTable(), relax: relax, uncached: true}
}

// Name implements core.Manager.
func (m *RelaxedManager) Name() string { return "relaxed" }

// Tables exposes the relaxation tables (for diagnostics and plots).
func (m *RelaxedManager) Tables() *RelaxTables { return m.relax }

// Decide implements core.Manager.
func (m *RelaxedManager) Decide(i int, t core.Time) core.Decision {
	if m.uncached {
		q, work := m.tab.Choose(i, t)
		r, w2 := m.relax.Steps(i, t, q)
		return core.Decision{Q: q, Steps: r, Work: work + 2*w2}
	}
	return m.relax.Plan().Decide(i, t)
}
