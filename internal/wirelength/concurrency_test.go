package wirelength

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/synth"
)

// testWidths are the numbers of concurrent evaluations the job-level
// concurrency test runs at once: one, even and odd counts, and more
// goroutines than a small machine has cores.
var testWidths = []int{1, 2, 3, 7, 16}

// TestParallelMatchesSequential pins the job-level concurrency contract: a
// model evaluates on its caller's goroutine, so concurrent placements each
// build their own model, and those models, evaluating one shared design at
// the same time, must return exactly (==) the value and gradients of a
// sequential evaluation. Nothing in the package may be shared mutable state
// between model instances; under -race this also checks that evaluation
// only reads the design.
func TestParallelMatchesSequential(t *testing.T) {
	d, err := synth.Generate(synth.Spec{
		Name: "par", NumMovable: 600, NumPads: 8, NumNets: 700,
		AvgDegree: 3.9, Utilization: 0.7, TargetDensity: 1, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := d.NumCells()
	type result struct {
		v, vOnly float64
		gx, gy   []float64
		err      error
	}
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
				res := make([]result, workers)
				var wg sync.WaitGroup
				for w := range res {
					wg.Add(1)
					go func(r *result) {
						defer wg.Done()
						m, err := New(name, nil)
						if err != nil {
							r.err = err
							return
						}
						if m.Name() != seq.Name() || m.ParamKind() != seq.ParamKind() {
							r.err = fmt.Errorf("metadata (%s, %v), sequential (%s, %v)", m.Name(), m.ParamKind(), seq.Name(), seq.ParamKind())
							return
						}
						r.gx = make([]float64, n)
						r.gy = make([]float64, n)
						r.v = m.WirelengthGrad(d, p, r.gx, r.gy)
						r.vOnly = m.WirelengthGrad(d, p, nil, nil)
					}(&res[w])
				}
				wg.Wait()
				for w, r := range res {
					if r.err != nil {
						t.Fatalf("goroutine %d: %v", w, r.err)
					}
					if r.v != vS {
						t.Errorf("goroutine %d: value %v, sequential %v", w, r.v, vS)
					}
					// A value-only call (nil gradients) returns the same value.
					if r.vOnly != vS {
						t.Errorf("goroutine %d: value-only %v, sequential %v", w, r.vOnly, vS)
					}
					for i := 0; i < n; i++ {
						if r.gx[i] != gxS[i] || r.gy[i] != gyS[i] {
							t.Fatalf("goroutine %d: grad at cell %d: (%v,%v), sequential (%v,%v)", w, i, r.gx[i], r.gy[i], gxS[i], gyS[i])
						}
					}
				}
			})
		}
	}
}

// TestParallelRepeatedCallsStable pins that one model, called again into
// buffers left holding its previous gradients, recomputes the same bits: the
// reused chunk scratch carries nothing from one call to the next.
func TestParallelRepeatedCallsStable(t *testing.T) {
	d, err := synth.Generate(synth.Spec{
		Name: "rep", NumMovable: 200, NumPads: 4, NumNets: 220,
		AvgDegree: 3.5, Utilization: 0.7, TargetDensity: 1, Seed: 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New("ME", nil)
	if err != nil {
		t.Fatal(err)
	}
	n := d.NumCells()
	gx := make([]float64, n)
	gy := make([]float64, n)
	v1 := m.WirelengthGrad(d, 1.5, gx, gy)
	g0 := gx[0]
	v2 := m.WirelengthGrad(d, 1.5, gx, gy)
	if v1 != v2 || gx[0] != g0 {
		t.Errorf("repeated calls differ: %g vs %g", v1, v2)
	}
}
