package density

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
)

// BenchmarkElectroSolve measures one spectral Poisson solve (forward 2-D
// DCT, three scaled syntheses) on a 256x256 grid, the dominant density cost
// of a Nesterov iteration on large designs.
func BenchmarkElectroSolve(b *testing.B) {
	const nx, ny = 256, 256
	region := geom.Rect{XL: 0, YL: 0, XH: 1000, YH: 1000}
	e := NewElectro(NewGrid(region, nx, ny))
	for i := range e.Rho {
		e.Rho[i] = float64(i%97) / 97
	}
	// Warm up so short -benchtime runs measure the steady state (faulted-in
	// buffers, hot caches), not process start-up, and settle construction
	// garbage so no GC cycle lands inside a measured iteration.
	for i := 0; i < 3; i++ {
		e.Solve()
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Solve()
	}
}

// BenchmarkStampGather measures the density half's per-point footprint work
// on 50k entries over a 256x256 grid: one full stamp of every smoothed
// footprint, which records each entry's bins, and one field gather that
// reads them back. The entries mix cells with macros, some hanging past the
// region edge.
func BenchmarkStampGather(b *testing.B) {
	const nCells = 50000
	region := geom.Rect{XL: 0, YL: 0, XH: 1000, YH: 1000}
	cx, cy, w, h := testCells(nCells, region, 3)
	for i := range w {
		w[i] /= 2
		h[i] /= 2
	}
	g := NewGrid(region, 256, 256)
	f := NewFootprints(g, w, h)
	rng := rand.New(rand.NewSource(4))
	ex := make([]float64, g.Nx*g.Ny)
	ey := make([]float64, g.Nx*g.Ny)
	for i := range ex {
		ex[i], ey[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	fx, fy := make([]float64, nCells), make([]float64, nCells)
	g.Clear()
	f.Stamp(cx, cy, 0, nCells)
	f.Gather(ex, ey, fx, fy)
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Clear()
		f.Stamp(cx, cy, 0, nCells)
		f.Gather(ex, ey, fx, fy)
	}
}

// testCells generates a deterministic mix of small cells and macro-sized
// rectangles, some hanging past the region edge.
func testCells(n int, region geom.Rect, seed int64) (cx, cy, w, h []float64) {
	rng := rand.New(rand.NewSource(seed))
	cx = make([]float64, n)
	cy = make([]float64, n)
	w = make([]float64, n)
	h = make([]float64, n)
	for i := 0; i < n; i++ {
		cx[i] = region.XL + rng.Float64()*region.W()
		cy[i] = region.YL + rng.Float64()*region.H()
		w[i] = 0.5 + rng.Float64()*2
		h[i] = 0.5 + rng.Float64()*2
		if i%50 == 0 { // occasional macro spanning many bins
			w[i] *= 20
			h[i] *= 15
		}
	}
	return
}
