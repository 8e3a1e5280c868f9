package density

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// parallelWorkerCounts are the pool sizes every parallel path must match the
// serial path for, bit for bit: 1 (the serial path itself), even splits,
// primes that leave ragged chunks, and a pool as wide as some grids.
var parallelWorkerCounts = []int{1, 2, 3, 7, 16}

// firstDiff returns the first index where a and b differ (!=), or -1.
func firstDiff(a, b []float64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestElectroParallelMatchesSerial solves the same charge distribution with
// the serial solver and with worker pools, comparing potential, field and
// energy. Every output vector is computed with the same arithmetic as the
// serial path, so the match is exact (==).
func TestElectroParallelMatchesSerial(t *testing.T) {
	for _, dims := range [][2]int{{32, 32}, {64, 16}} {
		nx, ny := dims[0], dims[1]
		region := geom.Rect{XL: 0, YL: 0, XH: 100, YH: 80}
		rng := rand.New(rand.NewSource(5))
		rho := make([]float64, nx*ny)
		for i := range rho {
			rho[i] = rng.Float64()
		}
		solve := func(e *Electro) {
			copy(e.Rho, rho)
			copy(e.Grid().Density, rho)
			e.Solve()
		}

		serial := NewElectro(NewGrid(region, nx, ny))
		solve(serial)

		for _, workers := range parallelWorkerCounts {
			e := NewElectroWorkers(NewGrid(region, nx, ny), workers)
			if e.Workers() != workers {
				t.Fatalf("Workers() = %d, want %d", e.Workers(), workers)
			}
			solve(e)
			for name, pair := range map[string][2][]float64{
				"Coeff": {e.Coeff, serial.Coeff},
				"Psi":   {e.Psi, serial.Psi},
				"Ex":    {e.Ex, serial.Ex},
				"Ey":    {e.Ey, serial.Ey},
			} {
				if i := firstDiff(pair[0], pair[1]); i >= 0 {
					t.Errorf("%dx%d workers=%d: %s[%d] = %v, serial %v", nx, ny, workers, name, i, pair[0][i], pair[1][i])
				}
			}
			if got, want := e.Energy(), serial.Energy(); got != want {
				t.Errorf("%dx%d workers=%d: energy %v, serial %v", nx, ny, workers, got, want)
			}
		}
	}
}

// TestElectroParallelDeterministic re-solves with the same pool and demands
// bit-identical output (the ordered-reduction determinism contract).
func TestElectroParallelDeterministic(t *testing.T) {
	region := geom.Rect{XL: 0, YL: 0, XH: 50, YH: 50}
	rng := rand.New(rand.NewSource(9))
	e := NewElectroWorkers(NewGrid(region, 32, 32), 3)
	for i := range e.Rho {
		e.Rho[i] = rng.Float64()
	}
	e.Solve()
	first := append([]float64(nil), e.Psi...)
	e.Solve()
	for i := range first {
		if e.Psi[i] != first[i] {
			t.Fatalf("Psi[%d] changed across identical solves: %v vs %v", i, first[i], e.Psi[i])
		}
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

// TestStamperMatchesSerial stamps the same cell set serially and through
// worker pools and demands bit-identical density maps and overflow.
func TestStamperMatchesSerial(t *testing.T) {
	region := geom.Rect{XL: 0, YL: 0, XH: 64, YH: 64}
	const n = 500
	cx, cy, w, h := testCells(n, region, 21)

	serial := NewGrid(region, 32, 32)
	serial.StampFixedRect(5, 5, 20, 12, 1)
	for i := 0; i < n; i++ {
		serial.StampSmoothed(cx[i], cy[i], w[i], h[i])
	}
	wantPhi := serial.Overflow(0.9, float64(n))

	for _, workers := range parallelWorkerCounts {
		g := NewGrid(region, 32, 32)
		g.StampFixedRect(5, 5, 20, 12, 1)
		s := NewStamper(g, workers)
		s.StampSmoothed(n, func(i int) (float64, float64, float64, float64) {
			return cx[i], cy[i], w[i], h[i]
		})
		if i := firstDiff(g.Density, serial.Density); i >= 0 {
			t.Errorf("workers=%d: density[%d] = %v, serial %v", workers, i, g.Density[i], serial.Density[i])
		}
		if phi := g.Overflow(0.9, float64(n)); phi != wantPhi {
			t.Errorf("workers=%d: overflow %v vs serial %v", workers, phi, wantPhi)
		}
	}
}

// TestStamperAccumulates checks that stamping twice adds on top of the
// existing map (the movable+filler two-pass contract of the placer).
func TestStamperAccumulates(t *testing.T) {
	region := geom.Rect{XL: 0, YL: 0, XH: 32, YH: 32}
	g := NewGrid(region, 16, 16)
	s := NewStamper(g, 3)
	stamp := func() {
		s.StampSmoothed(10, func(i int) (float64, float64, float64, float64) {
			return 4 + float64(i)*2, 16, 2, 2
		})
	}
	stamp()
	once := g.SumDensity()
	stamp()
	if twice := g.SumDensity(); math.Abs(twice-2*once) > 1e-9*once {
		t.Fatalf("second stamp did not accumulate: %v vs 2*%v", twice, once)
	}
}

// TestStamperFewerCellsThanWorkers covers pools wider than the cell count
// and than the grid's row count (the pool clamps to one row per worker).
func TestStamperFewerCellsThanWorkers(t *testing.T) {
	region := geom.Rect{XL: 0, YL: 0, XH: 32, YH: 32}
	serial := NewGrid(region, 16, 16)
	serial.StampSmoothed(10, 10, 3, 3)
	serial.StampSmoothed(20, 20, 3, 3)

	coords := [][4]float64{{10, 10, 3, 3}, {20, 20, 3, 3}}
	for _, workers := range []int{7, 32} {
		g := NewGrid(region, 16, 16)
		NewStamper(g, workers).StampSmoothed(len(coords), func(i int) (float64, float64, float64, float64) {
			c := coords[i]
			return c[0], c[1], c[2], c[3]
		})
		if i := firstDiff(g.Density, serial.Density); i >= 0 {
			t.Fatalf("workers=%d: density[%d] = %v, serial %v", workers, i, g.Density[i], serial.Density[i])
		}
	}
}
