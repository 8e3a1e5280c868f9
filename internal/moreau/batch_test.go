package moreau

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refBatch is GradBatch's algorithm kept as a reference: per net, a generic
// sort, the two water-filling sweeps, the mean in sorted order when the
// levels cross, the envelope in a second pass over the net, and then a
// separate gradient loop scaled by the net weight. It also returns the
// branch counts GradBatch reports into Stats.
func refBatch(starts []int32, coords []float64, t float64, weights []float64, grads []float64) (total float64, evals, degenerate, large int64) {
	base := starts[0]
	inv := 1 / t
	for b := 0; b+1 < len(starts); b++ {
		s0, s1 := int(starts[b]-base), int(starts[b+1]-base)
		if s1 == s0 {
			continue
		}
		w := weights[b]
		x := coords[s0:s1]
		evals++
		if len(x) == 1 {
			degenerate++
			if grads != nil {
				grads[s0] = 0
			}
			total += w * t
			continue
		}
		if len(x) > insertionSortMax {
			large++
		}
		s := append([]float64(nil), x...)
		sort.Float64s(s)
		tau1, tau2 := WaterFillLower(s, t), WaterFillUpper(s, t)
		degen := tau1 > tau2
		if degen {
			degenerate++
			m := 0.0
			for _, v := range s {
				m += v
			}
			m /= float64(len(s))
			tau1, tau2 = m, m
		}
		ss := 0.0
		for _, v := range x {
			switch {
			case degen:
				d := v - tau1
				ss += d * d
			case v > tau2:
				d := v - tau2
				ss += d * d
			case v < tau1:
				d := tau1 - v
				ss += d * d
			}
		}
		value := ss / (2 * t)
		if !degen {
			value = (tau2 - tau1) + ss/(2*t)
		}
		total += w * (value + t)
		if grads == nil {
			continue
		}
		g := grads[s0:s1]
		for i, v := range x {
			switch {
			case degen:
				g[i] = w * ((v - tau1) * inv)
			case v > tau2:
				g[i] = w * ((v - tau2) * inv)
			case v < tau1:
				g[i] = w * ((v - tau1) * inv)
			default:
				g[i] = 0
			}
		}
	}
	return total, evals, degenerate, large
}

// TestGradBatchMatchesReference checks GradBatch bit for bit against
// refBatch on random batches: degrees 0-40 (empty and one-pin nets
// included), random, duplicate-heavy, sorted, reversed and two-valued
// coordinates, net weights other than 1, and a smoothing parameter drawn
// against each batch's spread so that both the crossed (degenerate) and the
// separated water levels occur, at two pins as well as at many. The total
// is compared with and without gradients, and so are the Stats counters.
func TestGradBatchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ev := NewEvaluator(8)
	var twoPin [2][2]int // [degenerate][0+dq > t] over two-pin nets
	var branches [2]int  // [degenerate] over nets of two or more pins
	for batch := 0; batch < 600; batch++ {
		nets := 1 + rng.Intn(12)
		base := int32(rng.Intn(50))
		starts := []int32{base}
		var coords []float64
		weights := make([]float64, nets)
		for b := range weights {
			n := rng.Intn(41)
			if rng.Intn(4) == 0 {
				n = rng.Intn(4) // more 0-3 pin nets
			}
			kind := rng.Intn(5)
			lo, hi := rng.NormFloat64()*100, rng.NormFloat64()*100
			for i := 0; i < n; i++ {
				var v float64
				switch kind {
				case 0:
					v = rng.NormFloat64() * 50
				case 1:
					v = float64(rng.Intn(3)) * 7 // heavy duplicates
				case 2:
					v = float64(i) * 1.5 // sorted
				case 3:
					v = float64(n-i) * 2.5 // reversed
				default:
					v = lo // two-valued
					if rng.Intn(2) == 0 {
						v = hi
					}
				}
				coords = append(coords, v)
			}
			starts = append(starts, starts[len(starts)-1]+int32(n))
			switch rng.Intn(3) {
			case 0:
				weights[b] = 1
			default:
				weights[b] = 0.25 + rng.Float64()*3
			}
		}
		// t spans three decades around the batch's typical spread.
		tSmooth := 50 * math.Pow(10, rng.Float64()*3-2)

		// Branch bookkeeping from the reference levels.
		for b := 0; b+1 < len(starts); b++ {
			x := coords[starts[b]-base : starts[b+1]-base]
			if len(x) < 2 {
				continue
			}
			s := append([]float64(nil), x...)
			sort.Float64s(s)
			d := 0
			if WaterFillLower(s, tSmooth) > WaterFillUpper(s, tSmooth) {
				d = 1
			}
			branches[d]++
			if len(x) == 2 {
				f := 0
				if 0+(s[1]-s[0]) > tSmooth {
					f = 1
				}
				twoPin[d][f]++
			}
		}

		want := make([]float64, len(coords))
		wantTotal, evals, degen, large := refBatch(starts, coords, tSmooth, weights, want)
		var st Stats
		ev.Stats = &st
		got := make([]float64, len(coords))
		for i := range got {
			got[i] = math.NaN() // every entry must be overwritten
		}
		total := ev.GradBatch(starts, coords, tSmooth, weights, got)
		if math.Float64bits(total) != math.Float64bits(wantTotal) {
			t.Fatalf("batch %d: total %v, reference %v", batch, total, wantTotal)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("batch %d: grads[%d] = %v, reference %v", batch, i, got[i], want[i])
			}
		}
		if st.Evals.Load() != evals || st.Degenerate.Load() != degen || st.LargeSorts.Load() != large {
			t.Fatalf("batch %d: stats evals/degenerate/large %d/%d/%d, reference %d/%d/%d", batch,
				st.Evals.Load(), st.Degenerate.Load(), st.LargeSorts.Load(), evals, degen, large)
		}
		noGrad := ev.GradBatch(starts, coords, tSmooth, weights, nil)
		if math.Float64bits(noGrad) != math.Float64bits(wantTotal) {
			t.Fatalf("batch %d: total without gradients %v, reference %v", batch, noGrad, wantTotal)
		}
		if st.Evals.Load() != 2*evals {
			t.Fatalf("batch %d: %d evaluations after two calls, want %d", batch, st.Evals.Load(), 2*evals)
		}
	}
	if branches[0] == 0 || branches[1] == 0 {
		t.Fatalf("branch coverage: %d separated, %d degenerate nets", branches[0], branches[1])
	}
	for d := range twoPin {
		for f := range twoPin[d] {
			// A two-pin net whose spread is at most t always crosses.
			if d == 0 && f == 0 {
				continue
			}
			if twoPin[d][f] == 0 {
				t.Fatalf("two-pin coverage [degenerate=%d][0+dq>t=%d] is empty: %v", d, f, twoPin)
			}
		}
	}
}
