package regions

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
)

// RelaxTables stores the control relaxation regions R^r_q of §3.3 for a
// set ρ of relaxation step counts. For each level q, step count r ∈ ρ and
// state i it stores the two interval bounds of Proposition 3:
//
//	upper[q][ri][i] = tD,r(s_i, q) = min_{i≤j≤i+r-1} tD(s_j, q) − Cwc(a_i..a_{j-1}, q)
//	lower[q][ri][i] = tD(s_{i+r-1}, q+1)            (TimeNegInf for q = qmax)
//
// so that (s_i, t) ∈ R^r_q  ⇔  lower < t ≤ upper. This is 2·|A|·|Q|·|ρ|
// integers — 99,876 for the paper's encoder (§4.1). States too close to
// the end of the cycle to relax r steps carry an empty interval
// (upper = TimeNegInf).
type RelaxTables struct {
	td    *TDTable
	rho   []int
	upper [][][]core.Time // [q][ri][i]
	lower [][][]core.Time // [q][ri][i]

	planOnce sync.Once
	plan     *DecisionPlan // lazily memoized decision procedure; see plan.go
}

// BuildRelaxTables derives the relaxation tables from a tD table and a
// relaxation-step set rho. rho is sorted ascending, deduplicated, and must
// contain 1 (R^1_q = R_q guarantees the relaxed manager always finds a
// step count). Construction is O(n·|Q|·|ρ|) using a sliding-window
// minimum (monotonic deque) per (q, r) over e_q(j) = tD(s_j, q) − Wq[j].
func BuildRelaxTables(td *TDTable, rho []int) (*RelaxTables, error) {
	rt, err := newRelaxTables(td, rho)
	if err != nil {
		return nil, err
	}
	for q := range rt.upper {
		fillRelaxLevel(rt, q)
	}
	return rt, nil
}

// maxRelaxSteps caps |ρ|. The tables hold 2·|A|·|Q|·|ρ| integers, and
// bundles are compiled from specs read from outside, so the step count
// is what keeps their size proportional to the spec's own.
const maxRelaxSteps = 32

// newRelaxTables validates rho and allocates the tables' rows.
func newRelaxTables(td *TDTable, rho []int) (*RelaxTables, error) {
	if len(rho) == 0 {
		return nil, fmt.Errorf("regions: empty relaxation set")
	}
	r2 := append([]int(nil), rho...)
	slices.Sort(r2)
	uniq := r2[:0]
	for i, r := range r2 {
		if r <= 0 {
			return nil, fmt.Errorf("regions: non-positive relaxation step %d", r)
		}
		if i == 0 || r != uniq[len(uniq)-1] {
			uniq = append(uniq, r)
		}
	}
	if uniq[0] != 1 {
		return nil, fmt.Errorf("regions: relaxation set must contain 1 (R¹_q = R_q)")
	}
	if len(uniq) > maxRelaxSteps {
		return nil, fmt.Errorf("regions: relaxation set has %d steps, limit is %d", len(uniq), maxRelaxSteps)
	}

	n := td.sys.NumActions()
	nq := td.sys.NumLevels()
	rt := &RelaxTables{
		td:    td,
		rho:   uniq,
		upper: make([][][]core.Time, nq),
		lower: make([][][]core.Time, nq),
	}
	for q := 0; q < nq; q++ {
		rt.upper[q] = make([][]core.Time, len(uniq))
		rt.lower[q] = make([][]core.Time, len(uniq))
		for ri := range uniq {
			rt.upper[q][ri] = make([]core.Time, n)
			rt.lower[q][ri] = make([]core.Time, n)
		}
	}
	return rt, nil
}

// fillRelaxLevel fills level q's rows for every r ∈ ρ: e(j) is computed
// once for the level, then each row is one monotonic-deque pass.
func fillRelaxLevel(rt *RelaxTables, q int) {
	td, sys := rt.td, rt.td.sys
	n := sys.NumActions()
	nq := sys.NumLevels()
	// e(j) = tD(s_j, q) − Wq[j]; window minima of e give the upper
	// bounds after adding back Wq[i].
	e := make([]core.Time, n)
	for j := 0; j < n; j++ {
		tdv := td.TD(j, core.Level(q))
		if tdv >= core.TimeInf {
			e[j] = core.TimeInf
		} else {
			e[j] = tdv - sys.WCPrefix(j, core.Level(q))
		}
	}
	for ri, r := range rt.rho {
		up, lo := rt.upper[q][ri], rt.lower[q][ri]
		// Monotonic deque of indices with increasing e values.
		deque := make([]int, 0, min(r, n)+1)
		for j := 0; j < n; j++ {
			for len(deque) > 0 && e[deque[len(deque)-1]] >= e[j] {
				deque = deque[:len(deque)-1]
			}
			deque = append(deque, j)
			i := j - r + 1 // window [i, j] has length r
			if i < 0 {
				continue
			}
			if deque[0] < i {
				deque = deque[1:]
			}
			m := e[deque[0]]
			if m >= core.TimeInf {
				up[i] = core.TimeInf
			} else {
				up[i] = m + sys.WCPrefix(i, core.Level(q))
			}
			if q == nq-1 {
				lo[i] = core.TimeNegInf
			} else {
				lo[i] = td.TD(i+r-1, core.Level(q+1))
			}
		}
		// States that cannot accommodate r further actions carry
		// an empty interval.
		for i := max(n-r+1, 0); i < n; i++ {
			up[i] = core.TimeNegInf
			lo[i] = core.TimeNegInf
		}
	}
}

// MustBuildRelaxTables is BuildRelaxTables that panics on error.
func MustBuildRelaxTables(td *TDTable, rho []int) *RelaxTables {
	rt, err := BuildRelaxTables(td, rho)
	if err != nil {
		panic(err)
	}
	return rt
}

// Rho returns the (sorted, deduplicated) relaxation-step set.
func (rt *RelaxTables) Rho() []int { return rt.rho }

// TDTable returns the quality-region table the relaxation tables extend.
func (rt *RelaxTables) TDTable() *TDTable { return rt.td }

// Interval returns the R^r_q interval bounds for state i and the ri-th
// element of ρ: (s_i, t) ∈ R^r_q ⇔ lo < t ≤ hi.
func (rt *RelaxTables) Interval(i int, q core.Level, ri int) (lo, hi core.Time) {
	return rt.lower[q][ri][i], rt.upper[q][ri][i]
}

// InRegion reports whether (s_i, t) lies in R^r_q for ρ[ri].
func (rt *RelaxTables) InRegion(i int, tm core.Time, q core.Level, ri int) bool {
	lo, hi := rt.Interval(i, q, ri)
	return lo < tm && tm <= hi
}

// Steps returns the largest r ∈ ρ such that (s_i, t) ∈ R^r_q, trying ρ in
// descending order; it always succeeds with r = 1 when q is the level the
// mixed policy chose at (s_i, t). work counts the probes spent.
func (rt *RelaxTables) Steps(i int, tm core.Time, q core.Level) (r, work int) {
	for ri := len(rt.rho) - 1; ri >= 0; ri-- {
		work++
		if rt.InRegion(i, tm, q, ri) {
			return rt.rho[ri], work
		}
	}
	// Unreachable when q = Choose(i, tm): R¹_q = R_q contains (i, tm).
	return 1, work
}

// NumEntries returns the 2·|A|·|Q|·|ρ| count of stored integers (§4.1).
func (rt *RelaxTables) NumEntries() int {
	sys := rt.td.sys
	return 2 * sys.NumActions() * sys.NumLevels() * len(rt.rho)
}

// MemoryBytes returns the resident size of the table payload in bytes.
func (rt *RelaxTables) MemoryBytes() int { return rt.NumEntries() * 8 }

// Digest returns a 64-bit FNV-1a digest of the compiled tables: the tD
// slab in storage order, then ρ, then each relaxation row's upper and
// lower bounds in [q][ri] order, folding in one 64-bit word per entry.
// Every fold step is a bijection of the running state, so changing any
// single entry changes the digest.
func (rt *RelaxTables) Digest() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	fold := func(v int64) { h = (h ^ uint64(v)) * prime }
	for _, v := range rt.td.td {
		fold(int64(v))
	}
	for _, r := range rt.rho {
		fold(int64(r))
	}
	for q := range rt.upper {
		for ri := range rt.rho {
			for _, v := range rt.upper[q][ri] {
				fold(int64(v))
			}
			for _, v := range rt.lower[q][ri] {
				fold(int64(v))
			}
		}
	}
	return h
}

// validate checks structural invariants: R^r_q ⊆ R_q (upper bounds never
// exceed tD(s_i, q), lower bounds never fall below the R_q lower border),
// and nesting R^{r'}_q ⊆ R^r_q for r' ≥ r.
func (rt *RelaxTables) validate() error {
	sys := rt.td.sys
	n := sys.NumActions()
	for q := 0; q < sys.NumLevels(); q++ {
		for ri, r := range rt.rho {
			for i := 0; i+r <= n; i++ {
				lo, hi := rt.Interval(i, core.Level(q), ri)
				rlo, rhi := rt.td.Interval(i, core.Level(q))
				if hi > rhi {
					return fmt.Errorf("regions: R^%d_q%d upper exceeds R_q at i=%d", r, q, i)
				}
				if lo < rlo && lo > core.TimeNegInf {
					return fmt.Errorf("regions: R^%d_q%d lower below R_q at i=%d", r, q, i)
				}
				if ri > 0 {
					plo, phi := rt.Interval(i, core.Level(q), ri-1)
					if hi > phi || (lo < plo && lo > core.TimeNegInf) {
						return fmt.Errorf("regions: R^%d_q%d not nested in R^%d at i=%d", r, q, rt.rho[ri-1], i)
					}
				}
			}
		}
	}
	return nil
}
