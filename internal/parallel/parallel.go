// Package parallel provides the worker-pool fan-out shared by the wirelength
// and density subsystems: For splits a range into one contiguous chunk per
// worker and runs the chunks concurrently.
//
// Nothing here reduces across workers. Callers keep their results
// independent of the worker count by giving every output element a single
// writer that adds its terms in a fixed order, so a run at any width
// computes, bit for bit, what the serial path computes.
package parallel

import "sync"

// clampWorkers bounds workers to [1, n] so every active worker owns at least
// one element.
func clampWorkers(workers, n int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// For splits [0, n) into one contiguous chunk per worker and calls
// fn(w, lo, hi) for each, concurrently when workers > 1. The worker index w
// ranges over [0, min(workers, n)), so per-worker scratch indexed by w is
// race-free. workers <= 1 (or n <= 1) runs fn inline on the caller's
// goroutine with the full range — the exact serial path, no goroutines.
func For(workers, n int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
