package placer

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/wirelength"
)

// TestEvalReusesDensityHalf pins the contract of the kept density result:
// an evaluation that reuses it equals a fresh engine's evaluation at the
// same point and parameters in every output bit, and a point one ULP away
// recomputes it.
func TestEvalReusesDensityHalf(t *testing.T) {
	for _, pre := range []bool{false, true} {
		name := "plain"
		if pre {
			name = "precondition"
		}
		t.Run(name, func(t *testing.T) {
			newEval := func() (*engine, []float64, *obs.Metrics) {
				cfg := DefaultConfig(wirelength.NewMoreau())
				cfg.GridX, cfg.GridY = 32, 32
				cfg.Precondition = pre
				cfg.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
				en, pos, err := newEngine(testDesign(t, 300, 1), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return en, pos, cfg.Obs.Metrics
			}
			const gamma1, lambda1 = 2.5, 3e-4
			const gamma2, lambda2 = 1.5, 7e-3

			fresh, x, _ := newEval()
			fresh.param, fresh.lambda = gamma2, lambda2
			wantGrad := make([]float64, len(x))
			want := fresh.eval(x, wantGrad)

			en, x, met := newEval()
			grad := make([]float64, len(x))
			en.param, en.lambda = gamma1, lambda1
			en.eval(x, grad)
			en.param, en.lambda = gamma2, lambda2
			got := en.eval(append([]float64(nil), x...), grad)
			stamps := met.Snapshot().PhaseCalls[obs.PhaseStamp]
			if reused := met.Snapshot().Counters["density_reused"]; reused != 1 || stamps != 1 {
				t.Fatalf("second eval at the same point: density_reused = %d, stamps = %d; want 1 and 1", reused, stamps)
			}
			if got != want {
				t.Errorf("value = %v, want %v", got, want)
			}
			for i := range grad {
				if grad[i] != wantGrad[i] {
					t.Fatalf("grad[%d] = %v, want %v", i, grad[i], wantGrad[i])
				}
			}
			if en.overflow != fresh.overflow || en.lastEnergy != fresh.lastEnergy {
				t.Errorf("overflow/energy = %v/%v, want %v/%v", en.overflow, en.lastEnergy, fresh.overflow, fresh.lastEnergy)
			}

			// One ULP in one entry is a different point.
			y := append([]float64(nil), x...)
			y[len(y)-1] = math.Nextafter(y[len(y)-1], math.Inf(1))
			en.eval(y, grad)
			snap := met.Snapshot()
			if snap.PhaseCalls[obs.PhaseStamp] != stamps+1 || snap.Counters["density_reused"] != 1 {
				t.Errorf("eval one ULP away: stamps %d -> %d, density_reused = %d; want a recompute",
					stamps, snap.PhaseCalls[obs.PhaseStamp], snap.Counters["density_reused"])
			}
		})
	}
}
