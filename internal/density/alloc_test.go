package density

import (
	"testing"

	"repro/internal/geom"
)

// TestSolveSteadyStateAllocFree pins the zero-allocation contract of the
// spectral solve: after the first call (which faults in nothing — all
// buffers are built by NewElectro), repeated Solves must not touch the heap.
func TestSolveSteadyStateAllocFree(t *testing.T) {
	g := NewGrid(geom.Rect{XL: 0, YL: 0, XH: 256, YH: 256}, 128, 128)
	e := NewElectro(g)
	for i := range e.Rho {
		e.Rho[i] = float64(i%113) / 113
	}
	e.Solve() // warm up

	if n := testing.AllocsPerRun(10, func() { e.Solve() }); n != 0 {
		t.Errorf("Electro.Solve allocates %v times per call in steady state, want 0", n)
	}
}
