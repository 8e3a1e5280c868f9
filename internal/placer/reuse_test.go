package placer

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/wirelength"
)

// newEvalEngine builds an instrumented engine on a 300-cell design for the
// evaluation-contract tests below.
func newEvalEngine(t *testing.T, pre bool) (*engine, []float64, *obs.Metrics) {
	t.Helper()
	cfg := DefaultConfig(wirelength.NewMoreau())
	cfg.GridX, cfg.GridY = 32, 32
	cfg.Precondition = pre
	cfg.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
	en, pos := coldEngine(t, testDesign(t, 300, 1), cfg)
	return en, pos, cfg.Obs.Metrics
}

// sameEval fails the test unless two engines' evaluations agree in every
// output bit: value, gradient, overflow, energy and smoothing parameter.
func sameEval(t *testing.T, got, want float64, grad, wantGrad []float64, en, ref *engine) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("value = %v, want %v", got, want)
	}
	for i := range grad {
		if math.Float64bits(grad[i]) != math.Float64bits(wantGrad[i]) {
			t.Fatalf("grad[%d] = %v, want %v", i, grad[i], wantGrad[i])
		}
	}
	if en.overflow != ref.overflow || en.lastEnergy != ref.lastEnergy || en.param != ref.param {
		t.Errorf("overflow/energy/param = %v/%v/%v, want %v/%v/%v",
			en.overflow, en.lastEnergy, en.param, ref.overflow, ref.lastEnergy, ref.param)
	}
}

// TestEvalReusesKeptEvaluation pins the contract of the kept evaluation: an
// evaluation at the kept point with a new lambda runs neither half of the
// objective and equals a fresh engine's single evaluation at that point and
// lambda in every output bit, and a point one ULP away recomputes both
// halves.
func TestEvalReusesKeptEvaluation(t *testing.T) {
	for _, pre := range []bool{false, true} {
		name := "plain"
		if pre {
			name = "precondition"
		}
		t.Run(name, func(t *testing.T) {
			const lambda1, lambda2 = 3e-4, 7e-3

			fresh, x, _ := newEvalEngine(t, pre)
			fresh.lambda = lambda2
			wantGrad := make([]float64, len(x))
			want := fresh.eval(x, wantGrad)

			en, x, met := newEvalEngine(t, pre)
			grad := make([]float64, len(x))
			en.lambda = lambda1
			en.eval(x, grad)
			before := met.Snapshot()
			en.lambda = lambda2
			got := en.eval(append([]float64(nil), x...), grad)
			after := met.Snapshot()
			for _, p := range []string{obs.PhaseWirelength, obs.PhaseStamp} {
				if n := after.PhaseCalls[p] - before.PhaseCalls[p]; n != 0 {
					t.Errorf("second eval at the same point opened %d %s spans, want 0", n, p)
				}
			}
			if reused := after.Counters["eval_reused"]; reused != 1 {
				t.Errorf("eval_reused = %d, want 1", reused)
			}
			sameEval(t, got, want, grad, wantGrad, en, fresh)

			// One ULP in one entry is a different point.
			y := append([]float64(nil), x...)
			y[len(y)-1] = math.Nextafter(y[len(y)-1], math.Inf(1))
			en.eval(y, grad)
			snap := met.Snapshot()
			for _, p := range []string{obs.PhaseWirelength, obs.PhaseStamp} {
				if n := snap.PhaseCalls[p] - after.PhaseCalls[p]; n != 1 {
					t.Errorf("eval one ULP away opened %d %s spans, want 1", n, p)
				}
			}
			if reused := snap.Counters["eval_reused"]; reused != 1 {
				t.Errorf("eval one ULP away: eval_reused = %d, want still 1", reused)
			}
		})
	}
}

// TestEvalIsPureInPointAndLambda pins what makes the kept evaluation safe
// to reuse and to drop: an evaluation depends only on the point and lambda,
// not on what the engine evaluated before. Engine A evaluates x, then y;
// engine B evaluates only y; both agree at y in every output bit.
func TestEvalIsPureInPointAndLambda(t *testing.T) {
	for _, pre := range []bool{false, true} {
		name := "plain"
		if pre {
			name = "precondition"
		}
		t.Run(name, func(t *testing.T) {
			const lambda = 2e-3
			a, x, _ := newEvalEngine(t, pre)
			b, _, _ := newEvalEngine(t, pre)
			// y spreads x out, so its overflow, and with it the smoothing
			// parameter, differs from x's.
			n := len(x) / 2
			y := append([]float64(nil), x...)
			for i := 0; i < n; i++ {
				y[i] += float64(i%17-8) * 0.5
				y[n+i] += float64(i%13-6) * 0.5
			}
			a.project(y)

			a.lambda, b.lambda = lambda, lambda
			grad := make([]float64, len(x))
			a.eval(x, grad)
			paramX := a.param
			got := a.eval(y, grad)
			if a.param == paramX {
				t.Fatalf("x and y share the smoothing parameter %v; the test needs points whose overflows differ", paramX)
			}
			wantGrad := make([]float64, len(x))
			want := b.eval(y, wantGrad)
			sameEval(t, got, want, grad, wantGrad, a, b)
		})
	}
}
