package placer

import (
	"runtime"
	"testing"

	"repro/internal/moreau"
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

// BenchmarkWirelengthGradGP measures ME's whole-design WirelengthGrad at a
// mid-GP state, where most nets take the degenerate branch: the test design
// placed for 300 iterations at DefaultConfig, evaluated at its last
// iteration's t. BenchmarkEvalGrad runs at the cold engine, where every net
// is degenerate, and wirelength's BenchmarkWirelengthGrad at a random
// placement, where few are. The timed model counts nothing, as in an
// untraced run; a second, counting model reports the degenerate share.
func BenchmarkWirelengthGradGP(b *testing.B) {
	d := testDesign(b, 2000, 2)
	cfg := DefaultConfig(wirelength.NewMoreau())
	cfg.MaxIters = 300
	var last TrajectoryPoint
	cfg.OnIteration = func(pt TrajectoryPoint) bool { last = pt; return true }
	if _, err := Place(d, cfg); err != nil {
		b.Fatal(err)
	}
	gx, gy := make([]float64, d.NumCells()), make([]float64, d.NumCells())
	var stats moreau.Stats
	counted, err := wirelength.New("ME", &stats)
	if err != nil {
		b.Fatal(err)
	}
	counted.WirelengthGrad(d, last.Param, gx, gy)
	m := wirelength.NewMoreau()
	m.WirelengthGrad(d, last.Param, gx, gy) // grows the chunk lanes
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WirelengthGrad(d, last.Param, gx, gy)
	}
	b.ReportMetric(float64(stats.Degenerate.Load())/float64(stats.Evals.Load()), "degenerate_ratio")
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
