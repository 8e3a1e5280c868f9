package density

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/geom"
)

// benchWorkerCounts are the pool sizes the perf trajectory tracks; the
// Workers=4 vs Workers=1 ratio is the PR-over-PR speedup metric recorded in
// BENCH_PR2.json (meaningful only on a 4+-core machine).
var benchWorkerCounts = []int{1, 2, 4}

// BenchmarkElectroSolve measures one spectral Poisson solve (forward 2-D
// DCT, three scaled syntheses) on a 256x256 grid, the dominant density cost
// of a Nesterov iteration on large designs.
func BenchmarkElectroSolve(b *testing.B) {
	const nx, ny = 256, 256
	region := geom.Rect{XL: 0, YL: 0, XH: 1000, YH: 1000}
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := NewElectroWorkers(NewGrid(region, nx, ny), workers)
			for i := range e.Rho {
				e.Rho[i] = float64(i%97) / 97
			}
			// Warm up so short -benchtime runs measure the steady state
			// (faulted-in buffers, hot caches), not process start-up, and
			// settle construction garbage so no GC cycle lands inside a
			// measured iteration.
			for i := 0; i < 3; i++ {
				e.Solve()
			}
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Solve()
			}
		})
	}
}

// BenchmarkStamp measures one full movable-cell scatter (50k smoothed
// footprints) onto a 256x256 grid, split into one row band per worker.
func BenchmarkStamp(b *testing.B) {
	const nCells = 50000
	region := geom.Rect{XL: 0, YL: 0, XH: 1000, YH: 1000}
	cx, cy, w, h := testCells(nCells, region, 3)
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			g := NewGrid(region, 256, 256)
			s := NewStamper(g, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Clear()
				s.StampSmoothed(nCells, func(i int) (float64, float64, float64, float64) {
					return cx[i], cy[i], w[i], h[i]
				})
			}
		})
	}
}
