package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Dispatch runs fn(i) for every i in [0, n) on a pool of `workers`
// goroutines. Work is sharded at index granularity: each index is
// claimed by exactly one worker (an atomic dispenser, so load balances
// even when costs are skewed) and runs start-to-finish on that worker.
// The units must be independent — fn(i) writes only state owned by
// index i — and then the outcome is a pure function of the inputs:
// worker count and claiming order change wall-clock time, never
// results. workers ≤ 0 selects GOMAXPROCS. Dispatch returns when every
// call has finished.
//
// It is the pool for independent units with no arrivals: the parameter
// sweep (sweepWorkers) and the multitask group runner parallelise
// through it, and each dispatched unit stays a serial simulation. The
// fleet engine does not use it; its streams arrive over simulated time
// and run on the fleet's own worker pool.
func Dispatch(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = EffectiveWorkers(n, workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// EffectiveWorkers resolves a requested worker count to the pool size
// Dispatch actually uses for n units: GOMAXPROCS when workers ≤ 0,
// capped at n. Callers reporting a run's configuration should print
// this, not the raw request.
func EffectiveWorkers(n, workers int) int {
	if workers <= 0 {
		workers = maxWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

func maxWorkers() int {
	p := runtime.GOMAXPROCS(0)
	if p < 1 {
		return 1
	}
	return p
}
