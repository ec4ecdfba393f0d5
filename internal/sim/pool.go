package sim

import "runtime"

// EffectiveWorkers resolves a requested worker count to the pool size
// the fleet engine actually starts for n streams: GOMAXPROCS when
// workers ≤ 0, capped at n. Callers reporting a run's configuration
// should print this, not the raw request.
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
