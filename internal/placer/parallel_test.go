package placer

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/wirelength"
)

// testWidths are the worker counts the width-independence tests compare.
var testWidths = []int{1, 2, 3, 7, 16}

// evalOnce builds an engine, with its model, at the given worker count and
// runs one full objective/gradient evaluation (wirelength + stamping +
// overflow + spectral solve + field gather) at the initial placement.
func evalOnce(t *testing.T, workers int) (obj, overflow float64, grad []float64) {
	t.Helper()
	d := testDesign(t, 600, 2)
	m, err := wirelength.New("ME", workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(m)
	cfg.Workers = workers
	en, pos, err := newEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	en.param = 1.5
	en.lambda = 1e-3
	grad = make([]float64, len(pos))
	obj = en.eval(pos, grad)
	return obj, en.overflow, grad
}

// TestEvalParallelMatchesSerial checks that the full evaluation pipeline
// computes the same bits at every worker count: objective, overflow and
// every gradient component equal (==) the serial engine's.
func TestEvalParallelMatchesSerial(t *testing.T) {
	refObj, refOverflow, refGrad := evalOnce(t, 1)
	for _, workers := range testWidths {
		obj, overflow, grad := evalOnce(t, workers)
		if obj != refObj || overflow != refOverflow {
			t.Errorf("workers=%d: objective %v, overflow %v; serial %v, %v", workers, obj, overflow, refObj, refOverflow)
		}
		for i := range grad {
			if grad[i] != refGrad[i] {
				t.Fatalf("workers=%d: grad[%d] = %v vs serial %v", workers, i, grad[i], refGrad[i])
			}
		}
	}
}

// TestPlaceParallelMatchesSerialRun runs a short full placement at every
// test width: positions, HPWL, trajectory and iteration count must equal
// (==) the serial run's.
func TestPlaceParallelMatchesSerialRun(t *testing.T) {
	run := func(workers int) (*Result, []float64, []float64) {
		d := testDesign(t, 400, 0)
		cfg := fastConfig(wirelength.NewMoreau())
		cfg.MaxIters = 60
		cfg.RecordEvery = 5
		cfg.Workers = workers
		res, err := Place(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, d.X, d.Y
	}
	serial, sx, sy := run(1)
	for _, workers := range testWidths[1:] {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			par, px, py := run(workers)
			if par.Iterations != serial.Iterations {
				t.Errorf("iterations: parallel %d vs serial %d", par.Iterations, serial.Iterations)
			}
			if par.HPWL != serial.HPWL {
				t.Errorf("HPWL: parallel %v vs serial %v", par.HPWL, serial.HPWL)
			}
			for c := range sx {
				if px[c] != sx[c] || py[c] != sy[c] {
					t.Fatalf("cell %d: parallel (%v,%v) vs serial (%v,%v)", c, px[c], py[c], sx[c], sy[c])
				}
			}
			if !reflect.DeepEqual(par.Trajectory, serial.Trajectory) {
				t.Errorf("trajectories differ")
			}
		})
	}
}

// TestEffectiveWorkersDefault pins that an unset worker knob means serial.
func TestEffectiveWorkersDefault(t *testing.T) {
	for _, c := range []struct{ workers, want int }{{0, 1}, {1, 1}, {4, 4}} {
		cfg := Config{Workers: c.workers}
		if got := cfg.effectiveWorkers(); got != c.want {
			t.Errorf("Workers=%d: effectiveWorkers() = %d, want %d", c.workers, got, c.want)
		}
	}
}
