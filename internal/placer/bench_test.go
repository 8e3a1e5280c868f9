package placer

import (
	"runtime"
	"testing"

	"repro/internal/wirelength"
)

// BenchmarkEvalGrad measures one full objective/gradient evaluation —
// wirelength, density stamping, overflow, spectral solve, and field gather —
// the unit of work the Nesterov loop repeats every iteration.
func BenchmarkEvalGrad(b *testing.B) {
	d := testDesign(b, 6000, 4)
	cfg := DefaultConfig(wirelength.NewMoreau())
	cfg.GridX, cfg.GridY = 128, 128
	en, pos, err := newEngine(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	en.param = 1.5
	en.lambda = 1e-3
	grad := make([]float64, len(pos))
	// Warm up so short -benchtime runs measure the steady state (faulted-in
	// buffers, hot caches, trained branch predictors), and settle the
	// garbage from engine construction so no GC cycle lands inside a
	// measured iteration.
	for i := 0; i < 3; i++ {
		en.eval(pos, grad)
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.eval(pos, grad)
	}
}
