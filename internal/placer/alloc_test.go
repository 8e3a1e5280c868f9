package placer

import (
	"testing"

	"repro/internal/wirelength"
)

// TestEvalSteadyStateAllocFree pins the zero-allocation contract of the full
// objective/gradient evaluation (wirelength + density stamp + spectral solve
// + field gather). The first call grows the wirelength model's chunk lanes;
// every call after that must not touch the heap.
func TestEvalSteadyStateAllocFree(t *testing.T) {
	d := testDesign(t, 2000, 2)
	cfg := DefaultConfig(wirelength.NewMoreau())
	cfg.GridX, cfg.GridY = 64, 64
	en, pos, err := newEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	en.param = 1.5
	en.lambda = 1e-3
	grad := make([]float64, len(pos))
	en.eval(pos, grad) // warm up: lane scratch growth happens here

	if n := testing.AllocsPerRun(10, func() { en.eval(pos, grad) }); n != 0 {
		t.Errorf("engine.eval allocates %v times per call in steady state, want 0", n)
	}
}
