package wirelength

import (
	"fmt"
	"testing"

	"repro/internal/synth"
)

// testWidths are the worker counts the width-independence tests compare:
// serial, even and ragged pool sizes, and more workers than net chunks.
var testWidths = []int{1, 2, 3, 7, 16}

// TestParallelMatchesSequential pins the width-independence contract: every
// model built at any worker count returns exactly (==) the value and
// gradients of the serial model, on a design spanning several net chunks.
func TestParallelMatchesSequential(t *testing.T) {
	d, err := synth.Generate(synth.Spec{
		Name: "par", NumMovable: 600, NumPads: 8, NumNets: 700,
		AvgDegree: 3.9, Utilization: 0.7, TargetDensity: 1, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := d.NumCells()
	for _, name := range append(AllModelNames(), "BiG_WA", "HPWL") {
		seq, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := 2.5
		gxS := make([]float64, n)
		gyS := make([]float64, n)
		vS := seq.WirelengthGrad(d, p, gxS, gyS)
		for _, workers := range testWidths {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				par, err := New(name, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				if par.Name() != seq.Name() || par.ParamKind() != seq.ParamKind() {
					t.Errorf("metadata mismatch")
				}
				gxP := make([]float64, n)
				gyP := make([]float64, n)
				if vP := par.WirelengthGrad(d, p, gxP, gyP); vP != vS {
					t.Errorf("value %v, serial %v", vP, vS)
				}
				for i := 0; i < n; i++ {
					if gxP[i] != gxS[i] || gyP[i] != gyS[i] {
						t.Fatalf("grad at cell %d: (%v,%v), serial (%v,%v)", i, gxP[i], gyP[i], gxS[i], gyS[i])
					}
				}
				// A value-only call (nil gradients) returns the same value.
				if v := par.WirelengthGrad(d, p, nil, nil); v != vS {
					t.Errorf("value-only %v, serial %v", v, vS)
				}
			})
		}
	}
}

func TestParallelRepeatedCallsStable(t *testing.T) {
	d, err := synth.Generate(synth.Spec{
		Name: "rep", NumMovable: 200, NumPads: 4, NumNets: 220,
		AvgDegree: 3.5, Utilization: 0.7, TargetDensity: 1, Seed: 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	par, err := New("ME", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := d.NumCells()
	gx := make([]float64, n)
	gy := make([]float64, n)
	v1 := par.WirelengthGrad(d, 1.5, gx, gy)
	g0 := gx[0]
	v2 := par.WirelengthGrad(d, 1.5, gx, gy)
	if v1 != v2 || gx[0] != g0 {
		t.Errorf("repeated parallel calls differ: %g vs %g", v1, v2)
	}
}
