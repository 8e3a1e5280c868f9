package placer

import (
	"runtime"
	"testing"

	"repro/internal/wirelength"
)

// benchEngine builds the engine the evaluation benchmarks drive, warmed up
// so short -benchtime runs measure the steady state (faulted-in buffers, hot
// caches, trained branch predictors), with the garbage from engine
// construction settled so no GC cycle lands inside a measured iteration.
func benchEngine(b *testing.B) (*engine, []float64, []float64) {
	d := testDesign(b, 6000, 4)
	cfg := DefaultConfig(wirelength.NewMoreau())
	cfg.GridX, cfg.GridY = 128, 128
	en, pos := coldEngine(b, d, cfg)
	en.lambda = 1e-3
	grad := make([]float64, len(pos))
	for i := 0; i < 3; i++ {
		en.eval(pos, grad)
	}
	runtime.GC()
	return en, pos, grad
}

// BenchmarkEvalGrad measures one full objective/gradient evaluation —
// density stamping, overflow, spectral solve, field sampling, wirelength and
// gradient assembly — the work of every evaluation at a new point. It
// alternates between two points one ULP apart, starting with the one the
// warm-up did not evaluate, so no call reuses the kept evaluation.
func BenchmarkEvalGrad(b *testing.B) {
	en, pos, grad := benchEngine(b)
	alt := [2][]float64{nudged(pos), pos}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.eval(alt[i%2], grad)
	}
}

// BenchmarkEvalGradReused measures an evaluation at the kept point, which
// Nesterov's first evaluation of each step repeats: gradient assembly alone,
// since both halves of the objective are reused.
func BenchmarkEvalGradReused(b *testing.B) {
	en, pos, grad := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.eval(pos, grad)
	}
}
