package density

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
)

// concurrentSolvers are the numbers of solvers the job-level concurrency
// test runs at once: one, even and odd counts, and more goroutines than a
// small machine has cores.
var concurrentSolvers = []int{1, 2, 3, 7, 16}

// firstDiff returns the first index where a and b differ (!=), or -1.
func firstDiff(a, b []float64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestElectroParallelMatchesSerial pins the job-level concurrency contract of
// the spectral solver: a solve runs on its caller's goroutine, so concurrent
// placements each own a solver, and those solvers share only the fft
// package's plan caches. Solvers running at the same time must compute the
// potential, field and energy of a lone serial solve exactly (==).
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

		for _, workers := range concurrentSolvers {
			solvers := make([]*Electro, workers)
			var wg sync.WaitGroup
			for w := range solvers {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					e := NewElectro(NewGrid(region, nx, ny))
					solve(e)
					solvers[w] = e
				}(w)
			}
			wg.Wait()
			for w, e := range solvers {
				for name, pair := range map[string][2][]float64{
					"coeffT": {e.coeffT, serial.coeffT},
					"Psi":    {e.Psi, serial.Psi},
					"Ex":     {e.Ex, serial.Ex},
					"Ey":     {e.Ey, serial.Ey},
				} {
					if i := firstDiff(pair[0], pair[1]); i >= 0 {
						t.Errorf("%dx%d, %d solvers, solver %d: %s[%d] = %v, serial %v", nx, ny, workers, w, name, i, pair[0][i], pair[1][i])
					}
				}
				if got, want := e.Energy(), serial.Energy(); got != want {
					t.Errorf("%dx%d, %d solvers, solver %d: energy %v, serial %v", nx, ny, workers, w, got, want)
				}
			}
		}
	}
}

// TestElectroParallelDeterministic re-solves with the same solver, reusing
// its buffers and plans, and demands bit-identical output.
func TestElectroParallelDeterministic(t *testing.T) {
	region := geom.Rect{XL: 0, YL: 0, XH: 50, YH: 50}
	rng := rand.New(rand.NewSource(9))
	e := NewElectro(NewGrid(region, 32, 32))
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
