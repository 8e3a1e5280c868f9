// Package parallel provides the shared worker-pool primitives used by the
// wirelength and density subsystems: contiguous-range fan-out over a fixed
// worker count and deterministic (worker-ordered) floating-point reductions.
//
// Determinism contract: for a fixed worker count the range partition is a
// pure function of (workers, n), so every element is processed by the same
// worker with the same chunk boundaries on every call. Reductions that sum
// per-worker partials in worker index order therefore produce bit-identical
// results across runs; only changing the worker count reassociates the
// floating-point sums (within ~1e-15 relative).
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

// Active returns the number of workers that For/SumOrdered actually run for
// a range of n elements: min(workers, n), at least 1. Callers that maintain
// per-worker scratch reduce over exactly this many partials.
func Active(workers, n int) int { return clampWorkers(workers, n) }

// For splits [0, n) into one contiguous chunk per worker and calls
// fn(w, lo, hi) for each, concurrently when workers > 1. The worker index w
// ranges over [0, Active(workers, n)), so per-worker scratch indexed by w is
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

// SumOrdered computes per-worker partial sums over [0, n) concurrently and
// reduces them in worker index order, so the result is deterministic for a
// fixed worker count. workers <= 1 reduces to a single inline fn call.
func SumOrdered(workers, n int, fn func(w, lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		return fn(0, 0, n)
	}
	partials := make([]float64, workers)
	For(workers, n, func(w, lo, hi int) {
		partials[w] = fn(w, lo, hi)
	})
	sum := 0.0
	for _, p := range partials {
		sum += p
	}
	return sum
}
