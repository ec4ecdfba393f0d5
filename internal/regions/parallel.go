package regions

import (
	"runtime"
	"sync"

	"repro/internal/core"
)

// BuildTDTableParallel computes the same table as BuildTDTable with one
// goroutine per quality level (levels are fully independent: each runs
// its own monotonic-stack pass). For the paper-sized system the build is
// already sub-millisecond; the parallel variant exists for the large
// systems a downstream user may bring (long GOP structures, many levels)
// and is proven equivalent by tests.
func BuildTDTableParallel(sys *core.System) *TDTable {
	t := newTDTable(sys)
	c := deadlineSlack(sys)

	// Each level writes the disjoint strided entries td[i*nq+q] of the
	// shared slab, so levels may run concurrently.
	forEachLevel(t.nq, func(q int) { buildLevel(sys, core.Level(q), c, t) })
	return t
}

// forEachLevel runs fn(q) for every level q < nq, at most
// maxParallelism() levels at a time, and returns when all are done.
func forEachLevel(nq int, fn func(q int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxParallelism())
	for q := 0; q < nq; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fn(q)
		}(q)
	}
	wg.Wait()
}

// buildLevel runs the monotonic-stack pass for one level (the body of
// BuildTDTable's per-level loop, shared by the serial and parallel
// builders), writing the level's strided column of t's flat payload.
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

// BuildRelaxTablesParallel computes the same tables as BuildRelaxTables
// with the levels' sliding-window passes distributed over a bounded
// worker pool. Both builders fill each level with fillRelaxLevel; tests
// pin their equivalence.
func BuildRelaxTablesParallel(td *TDTable, rho []int) (*RelaxTables, error) {
	rt, err := newRelaxTables(td, rho)
	if err != nil {
		return nil, err
	}
	forEachLevel(len(rt.upper), func(q int) { fillRelaxLevel(rt, q) })
	return rt, nil
}

func maxParallelism() int {
	p := runtime.GOMAXPROCS(0)
	if p < 1 {
		return 1
	}
	return p
}
