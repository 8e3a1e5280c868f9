package moreau

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestSortFastPathMatchesGeneric checks sortedCopy's sorting networks and
// insertion-sort fast path against sort.Float64s across degrees spanning
// the insertionSortMax threshold, including duplicate-heavy and pre-sorted
// inputs, and runs every 0/1 input through each network.
func TestSortFastPathMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ev := NewEvaluator(8)
	for n := 1; n <= 2*insertionSortMax; n++ {
		for trial := 0; trial < 8; trial++ {
			x := make([]float64, n)
			for i := range x {
				switch trial % 4 {
				case 0:
					x[i] = rng.NormFloat64() * 100
				case 1:
					x[i] = float64(rng.Intn(3)) // heavy duplicates
				case 2:
					x[i] = float64(i) // already sorted
				default:
					x[i] = float64(n - i) // reversed
				}
			}
			checkSorted(t, ev, x, "trial", trial)
		}
	}
	// Every 0/1 input at each degree the sorting networks cover: by the 0-1
	// principle, a comparator network that sorts all of them sorts every
	// input.
	for n := 1; n <= 8; n++ {
		for bits := 0; bits < 1<<n; bits++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(bits >> i & 1)
			}
			checkSorted(t, ev, x, "bits", bits)
		}
	}
}

// checkSorted compares sortedCopy(x) with sort.Float64s on a copy of x.
func checkSorted(t *testing.T, ev *Evaluator, x []float64, label string, id int) {
	t.Helper()
	want := append([]float64(nil), x...)
	sort.Float64s(want)
	got := ev.sortedCopy(x)
	if len(got) != len(want) {
		t.Fatalf("n=%d %s=%d: sortedCopy returned %d entries", len(x), label, id, len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d %s=%d: sortedCopy[%d] = %v, sort.Float64s = %v", len(x), label, id, i, got[i], want[i])
		}
	}
}

// TestEnvelopeGradSortPathEquivalence evaluates the envelope and gradient on
// nets just below and above the insertion-sort threshold and compares
// against a reference evaluation that always uses the generic sort; both
// paths must agree exactly (same Levels arithmetic on the same sorted data).
func TestEnvelopeGradSortPathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ev := NewEvaluator(8)
	for _, n := range []int{2, 3, 5, insertionSortMax, insertionSortMax + 1, 3 * insertionSortMax} {
		for trial := 0; trial < 10; trial++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64() * 50
			}
			tSmooth := math.Abs(rng.NormFloat64())*4 + 1e-3

			// Reference: generic sort, then the same level math and the
			// envelope in a separate pass.
			s := append([]float64(nil), x...)
			sort.Float64s(s)
			want := Levels(s, tSmooth)
			refEnvelopeFromLevels(x, tSmooth, &want)
			wantGrad := make([]float64, n)
			refGradFromLevels(x, tSmooth, want, wantGrad)

			grad := make([]float64, n)
			got := ev.EnvelopeGrad(x, tSmooth, grad)
			if got.Value != want.Value || got.Tau1 != want.Tau1 || got.Tau2 != want.Tau2 || got.Degenerate != want.Degenerate {
				t.Fatalf("n=%d trial=%d: EnvelopeGrad result %+v != reference %+v", n, trial, got, want)
			}
			for i := range grad {
				if grad[i] != wantGrad[i] {
					t.Fatalf("n=%d trial=%d: grad[%d] = %v, reference %v", n, trial, i, grad[i], wantGrad[i])
				}
			}
		}
	}
}

// refEnvelopeFromLevels finishes the envelope value from resolved levels
// in its own pass over x, as the kernel did before it summed the squared
// distances inside its gradient loop.
func refEnvelopeFromLevels(x []float64, t float64, r *Result) {
	if r.Degenerate {
		m := r.Tau1
		ss := 0.0
		for _, v := range x {
			d := v - m
			ss += d * d
		}
		r.Value = ss / (2 * t)
		return
	}
	ss := 0.0
	for _, v := range x {
		if v > r.Tau2 {
			d := v - r.Tau2
			ss += d * d
		} else if v < r.Tau1 {
			d := r.Tau1 - v
			ss += d * d
		}
	}
	r.Value = (r.Tau2 - r.Tau1) + ss/(2*t)
}

// refGradFromLevels recomputes Corollary 1's gradient from resolved levels.
func refGradFromLevels(x []float64, t float64, r Result, grad []float64) {
	inv := 1 / t
	for i, v := range x {
		switch {
		case r.Degenerate:
			grad[i] = (v - r.Tau1) * inv
		case v > r.Tau2:
			grad[i] = (v - r.Tau2) * inv
		case v < r.Tau1:
			grad[i] = (v - r.Tau1) * inv
		default:
			grad[i] = 0
		}
	}
}
