package sim

import (
	"fmt"
)

// sweepPoint is one configuration of a parameter sweep: a label and a
// fully configured runner. Runners must not share mutable managers (the
// policy managers are stateless and safe to share; baseline feedback
// controllers are not).
type sweepPoint struct {
	Label  string
	Runner *Runner
}

// sweepResult pairs a sweep point's label with its trace (or error).
type sweepResult struct {
	Label string
	Trace *Trace
	Err   error
}

// sweep executes the given points concurrently on a bounded worker pool
// (GOMAXPROCS workers) and returns the results in input order. Each
// simulated run is single-threaded, preserving the paper's execution
// model; only independent runs are parallelised — the usual shape of a
// benchmark sweep over seeds, managers or parameter grids.
func sweep(points []sweepPoint) []sweepResult {
	return sweepWorkers(points, 0)
}

// sweepWorkers is sweep with an explicit worker count (≤ 0 selects
// GOMAXPROCS). Points are dispatched on the shared sharded pool, so a
// point's result never depends on the worker count — only the
// wall-clock time does.
func sweepWorkers(points []sweepPoint, workers int) []sweepResult {
	results := make([]sweepResult, len(points))
	Dispatch(len(points), workers, func(idx int) {
		p := points[idx]
		res := sweepResult{Label: p.Label}
		if p.Runner == nil {
			res.Err = fmt.Errorf("sim: sweep point %q has no runner", p.Label)
		} else {
			res.Trace, res.Err = p.Runner.Run()
		}
		results[idx] = res
	})
	return results
}
