package placer

import (
	"math"
	"testing"

	"repro/internal/wirelength"
)

// nudged returns a copy of pos with its first entry moved by one ULP: a
// point that misses the engine's kept evaluation, so an eval alternating
// between pos and the copy recomputes both halves every call.
func nudged(pos []float64) []float64 {
	q := append([]float64(nil), pos...)
	q[0] = math.Nextafter(q[0], math.Inf(1))
	return q
}

// TestEvalSteadyStateAllocFree pins the zero-allocation contract of the
// objective/gradient evaluation on both of its paths: the full one (density
// stamp + spectral solve + field sampling + wirelength + gradient assembly)
// and the one that reuses the kept evaluation. The first call grows the
// wirelength model's chunk lanes; every call after that must not touch the
// heap.
func TestEvalSteadyStateAllocFree(t *testing.T) {
	d := testDesign(t, 2000, 2)
	cfg := DefaultConfig(wirelength.NewMoreau())
	cfg.GridX, cfg.GridY = 64, 64
	en, pos := coldEngine(t, d, cfg)
	en.lambda = 1e-3
	grad := make([]float64, len(pos))
	en.eval(pos, grad) // warm up: lane scratch growth happens here

	alt := [2][]float64{pos, nudged(pos)}
	k := 0
	if n := testing.AllocsPerRun(10, func() { k++; en.eval(alt[k%2], grad) }); n != 0 {
		t.Errorf("full engine.eval allocates %v times per call in steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { en.eval(pos, grad) }); n != 0 {
		t.Errorf("reusing engine.eval allocates %v times per call in steady state, want 0", n)
	}
}
