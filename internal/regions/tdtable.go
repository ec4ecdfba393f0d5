// Package regions implements the symbolic quality-management machinery of
// §3.2 and §3.3: pre-computed tD tables, quality regions R_q
// (Proposition 2), control relaxation regions R^r_q (Proposition 3), and
// the symbolic and relaxed Quality Managers built on them.
//
// The paper pre-computed the tables with a Matlab/Simulink prototype; here
// they are built natively, either by the executable-specification builder
// (O(n²) per level) or by an amortised O(n) monotonic-stack builder, which
// the tests prove equivalent.
package regions

import (
	"fmt"
	"sync"

	"repro/internal/core"
)

// TDTable stores tD(s_i, q) for every state i ∈ [0, n) and level q: the
// |A|·|Q| integers that characterise the quality regions (§4.1 reports
// 8,323 of them for the 1,189-action, 7-level encoder).
//
// The payload is one contiguous slab indexed i·|Q|+q, so the |Q| entries
// a Decide probes at state i share a cache line instead of living in |Q|
// separate column slices.
type TDTable struct {
	sys *core.System
	nq  int
	td  []core.Time // td[i*nq+q], i in [0, n]

	planOnce sync.Once
	plan     *DecisionPlan // lazily memoized decision procedure; see plan.go
}

// Sys returns the system the table was built for.
func (t *TDTable) Sys() *core.System { return t.sys }

// TD returns the tabulated tD(s_i, q); i may equal NumActions().
func (t *TDTable) TD(i int, q core.Level) core.Time { return t.td[i*t.nq+int(q)] }

// newTDTable allocates the flat payload for sys (all entries zero).
func newTDTable(sys *core.System) *TDTable {
	nq := sys.NumLevels()
	return &TDTable{
		sys: sys,
		nq:  nq,
		td:  make([]core.Time, (sys.NumActions()+1)*nq),
	}
}

// NumEntries returns the |A|·|Q| count of stored region integers, the
// figure the paper reports in §4.1 (state n is excluded: it has no
// decision).
func (t *TDTable) NumEntries() int {
	return t.sys.NumActions() * t.sys.NumLevels()
}

// MemoryBytes returns the resident size of the table payload in bytes
// (8 bytes per integer, excluding Go slice headers).
func (t *TDTable) MemoryBytes() int {
	return t.sys.NumLevels() * (t.sys.NumActions() + 1) * 8
}

// BuildTDTable computes tD(s_i, q) for all states and levels with the
// amortised O(n·|Q|) monotonic-stack algorithm.
//
// For a fixed level q (see core/policy.go for the derivation),
//
//	tD(s_i, q) = A_q[i] + min_{k ≥ i, dl} ( c(k) − max_{i≤j≤k} h_q(j) ),
//	c(k) = D(a_k) − W[k+1].
//
// Scanning i from n−1 downward, the step function k ↦ max_{i≤j≤k} h_q(j)
// is maintained as a stack of plateau segments ordered by increasing hmax
// from the current state rightward; pushing h_q(i) absorbs every segment
// whose maximum it dominates. Each segment carries the minimum of c(k)
// over its deadline positions and the best (minimal) value of
// c − hmax over itself and all segments below it, so the global minimum
// is read off the top of the stack in O(1).
func BuildTDTable(sys *core.System) *TDTable {
	t := newTDTable(sys)
	c := deadlineSlack(sys)
	for q := 0; q < t.nq; q++ {
		buildLevel(sys, core.Level(q), c, t)
	}
	return t
}

// buildLevel runs BuildTDTable's monotonic-stack pass for one level,
// writing the level's strided column of t's flat payload.
func buildLevel(sys *core.System, q core.Level, c []core.Time, t *TDTable) {
	n := sys.NumActions()
	nq := t.nq
	type segment struct {
		hmax core.Time
		minC core.Time
		best core.Time
	}
	t.td[n*nq+int(q)] = core.TimeInf
	stack := make([]segment, 0, 64)
	for i := n - 1; i >= 0; i-- {
		h := hq(sys, i, q)
		minC := c[i]
		for len(stack) > 0 && stack[len(stack)-1].hmax <= h {
			top := stack[len(stack)-1]
			minC = core.MinTime(minC, top.minC)
			stack = stack[:len(stack)-1]
		}
		contrib := core.TimeInf
		if minC < core.TimeInf {
			contrib = minC - h
		}
		best := contrib
		if len(stack) > 0 {
			best = core.MinTime(best, stack[len(stack)-1].best)
		}
		stack = append(stack, segment{hmax: h, minC: minC, best: best})
		if best >= core.TimeInf {
			t.td[i*nq+int(q)] = core.TimeInf
		} else {
			t.td[i*nq+int(q)] = best + sys.AvPrefix(i, q)
		}
	}
}

// deadlineSlack precomputes the level-independent c(k) = D(a_k) − W[k+1]
// terms shared by every level's monotonic-stack pass.
func deadlineSlack(sys *core.System) []core.Time {
	n := sys.NumActions()
	c := make([]core.Time, n)
	for k := 0; k < n; k++ {
		if a := sys.Action(k); a.HasDeadline() {
			c[k] = a.Deadline - sys.WCPrefix(k+1, 0)
		} else {
			c[k] = core.TimeInf
		}
	}
	return c
}

// hq returns h_q(j) = Cwc(a_j, q) + A_q[j] − W[j+1], the per-position
// summand of the δmax maximisation.
func hq(sys *core.System, j int, q core.Level) core.Time {
	return sys.WC(j, q) + sys.AvPrefix(j, q) - sys.WCPrefix(j+1, 0)
}

// buildTDTableReference computes the same table by calling the on-line
// evaluator for every state: an O(n²·|Q|) executable specification used
// to validate BuildTDTable.
func buildTDTableReference(sys *core.System) *TDTable {
	t := newTDTable(sys)
	n := sys.NumActions()
	for q := 0; q < t.nq; q++ {
		for i := 0; i <= n; i++ {
			t.td[i*t.nq+q] = sys.TD(i, core.Level(q))
		}
	}
	return t
}

// Interval returns the quality-region interval of Proposition 2 for state
// i and level q: (s_i, t) ∈ R_q iff lo < t ≤ hi, with lo = TimeNegInf for
// q = qmax.
func (t *TDTable) Interval(i int, q core.Level) (lo, hi core.Time) {
	row := i * t.nq
	hi = t.td[row+int(q)]
	if q == t.sys.QMax() {
		return core.TimeNegInf, hi
	}
	return t.td[row+int(q)+1], hi
}

// InRegion reports whether (s_i, t) lies in the quality region R_q.
func (t *TDTable) InRegion(i int, tm core.Time, q core.Level) bool {
	lo, hi := t.Interval(i, q)
	return lo < tm && tm <= hi
}

// Choose returns the quality the mixed policy assigns at (s_i, t):
// the maximal q with tD(s_i, q) ≥ t, or qmin if no level qualifies.
// tD is non-increasing in q (property-tested), so the qualifying levels
// form a prefix of [0, qmax] and Choose binary-searches the contiguous
// row for its upper border in O(log |Q|) probes of one cache line.
// work reports the number of table probes spent.
func (t *TDTable) Choose(i int, tm core.Time) (q core.Level, work int) {
	row := t.td[i*t.nq : (i+1)*t.nq]
	lo, hi := 0, len(row)-1
	best := -1
	for lo <= hi {
		mid := int(uint(lo+hi) >> 1)
		work++
		if row[mid] >= tm {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if best <= 0 {
		return 0, work
	}
	return core.Level(best), work
}

// chooseLinear is the original qmax-downward linear scan, kept as the
// executable specification the binary-search Choose is property-tested
// against.
func (t *TDTable) chooseLinear(i int, tm core.Time) (q core.Level, work int) {
	for q := t.sys.QMax(); q > 0; q-- {
		work++
		if t.TD(i, q) >= tm {
			return q, work
		}
	}
	return 0, work + 1
}

// validate cross-checks structural invariants of the table: monotonicity
// in both arguments (non-increasing in q, non-decreasing in i) and
// agreement of adjacent-interval borders. Returns the first violation.
func (t *TDTable) validate() error {
	n := t.sys.NumActions()
	for q := 0; q < t.nq; q++ {
		for i := 0; i <= n; i++ {
			if q > 0 && t.td[i*t.nq+q] > t.td[i*t.nq+q-1] {
				return fmt.Errorf("regions: tD increasing in q at i=%d q=%d", i, q)
			}
			if i > 0 && t.td[i*t.nq+q] < t.td[(i-1)*t.nq+q] {
				return fmt.Errorf("regions: tD decreasing in i at i=%d q=%d", i, q)
			}
		}
	}
	return nil
}
