// Package moreau implements the paper's core contribution: the Moreau
// envelope of the per-net half-perimeter wirelength (HPWL) function,
//
//	W_e(x) = max_i x_i - min_i x_i,
//
// together with its proximal mapping and exact gradient.
//
// For a smoothing parameter t > 0 the Moreau envelope is
//
//	W_e^t(x) = min_u W_e(u) + ||u - x||^2 / (2t),
//
// which is convex, everywhere differentiable, and satisfies
// W_e(x) - t/2*(1/n_max + 1/n_min) <= W_e^t(x) <= W_e(x) (Theorem 2).
//
// Theorem 1 of the paper gives the proximal mapping in closed form up to two
// water levels tau1 <= tau2 solving
//
//	sum_i (x_i - tau2)^+ = sum_i (tau1 - x_i)^+ = t,
//
// each of which is found by the linear-time water-filling sweep of
// Algorithm 2 over the sorted coordinates. When the water levels cross
// (tau1 > tau2, i.e. t is large relative to the net's spread) the proximal
// point collapses to the mean coordinate and the envelope becomes the
// quadratic t-scaled variance (the degenerate branch of Theorem 1).
//
// The gradient follows from the envelope theorem (Corollary 1):
//
//	g_i = (x_i - tau2)/t  if x_i > tau2,
//	      0               if tau1 <= x_i <= tau2,
//	      (x_i - tau1)/t  if x_i < tau1,
//
// or g_i = (x_i - mean)/t in the degenerate case.
//
// All functions operate on one axis; horizontal and vertical parts of HPWL
// are symmetric and evaluated independently by the wirelength layer.
package moreau

import (
	"math"
	"sort"
	"sync/atomic"
)

// Stats counts branch behaviour across envelope evaluations: how many nets
// were evaluated, how many hit the degenerate (collapsed water levels)
// branch, and how many exceeded the insertion-sort fast path. Counters are
// atomic so one Stats may be shared by the per-worker evaluators of a
// parallel wirelength model. A nil *Stats disables counting at the cost of
// one pointer check per site.
type Stats struct {
	Evals      atomic.Int64
	Degenerate atomic.Int64
	LargeSorts atomic.Int64
}

// Result describes one envelope/prox evaluation of a net.
type Result struct {
	// Value is the Moreau envelope W_e^t(x).
	Value float64
	// Tau1, Tau2 are the water levels of Theorem 1. In the degenerate
	// case both equal the mean coordinate.
	Tau1, Tau2 float64
	// Degenerate reports whether the water levels crossed and the
	// proximal point collapsed to the mean.
	Degenerate bool
}

// WaterFillLower solves sum_i (tau - x_i)^+ = t for tau given coordinates
// sorted in ascending order, using the single-sweep water-filling of
// Algorithm 2. It runs in O(n) and requires len(sorted) >= 1 and t >= 0.
//
// Intuitively: pour an amount t of water into a reservoir whose bottom
// heights are the sorted coordinates; the returned tau is the final level.
func WaterFillLower(sorted []float64, t float64) float64 {
	n := len(sorted)
	q := 0.0 // water used to reach level sorted[k-1]
	for k := 1; k < n; k++ {
		dq := float64(k) * (sorted[k] - sorted[k-1])
		if q+dq > t {
			// Level lands between sorted[k-1] and sorted[k].
			return sorted[k] - (q+dq-t)/float64(k)
		}
		q += dq
	}
	// All bottoms submerged: the remaining water spreads over n columns.
	return sorted[n-1] + (t-q)/float64(n)
}

// WaterFillUpper solves sum_i (x_i - tau)^+ = t for tau given coordinates
// sorted in ascending order. It is the mirror image of WaterFillLower,
// sweeping down from the maximum coordinate.
func WaterFillUpper(sorted []float64, t float64) float64 {
	n := len(sorted)
	q := 0.0
	for k := 1; k < n; k++ {
		dq := float64(k) * (sorted[n-k] - sorted[n-k-1])
		if q+dq > t {
			return sorted[n-k-1] + (q+dq-t)/float64(k)
		}
		q += dq
	}
	return sorted[0] - (t-q)/float64(n)
}

// Levels computes the water levels (tau1, tau2) of Theorem 1 for the sorted
// coordinates and smoothing parameter t > 0, resolving the degenerate case
// to the mean coordinate as Algorithm 1 prescribes.
func Levels(sorted []float64, t float64) Result {
	tau1 := WaterFillLower(sorted, t)
	tau2 := WaterFillUpper(sorted, t)
	if tau1 > tau2 {
		mean := 0.0
		for _, v := range sorted {
			mean += v
		}
		mean /= float64(len(sorted))
		return Result{Tau1: mean, Tau2: mean, Degenerate: true}
	}
	return Result{Tau1: tau1, Tau2: tau2}
}

// mean returns the arithmetic mean of x (len(x) > 0).
func mean(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// envelopeFromLevels finishes the envelope value given resolved levels.
func envelopeFromLevels(x []float64, t float64, r *Result) {
	if r.Degenerate {
		// prox = mean vector; W_e(mean vector) = 0.
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

// Evaluator computes envelopes, proximal points, and gradients for many
// nets while reusing one sort scratch buffer. It is not safe for concurrent
// use; create one Evaluator per worker goroutine.
type Evaluator struct {
	scratch []float64
	// Stats, when non-nil, receives branch counters from every evaluation;
	// typically one shared Stats across all per-worker evaluators.
	Stats *Stats
}

// NewEvaluator returns an Evaluator whose scratch buffer is pre-sized for
// nets of up to maxDegree pins (it grows on demand if exceeded).
func NewEvaluator(maxDegree int) *Evaluator {
	return &Evaluator{scratch: make([]float64, 0, maxDegree)}
}

// insertionSortMax is the largest net degree sorted with insertion sort.
// Real netlists are dominated by 2-4 pin nets, where insertion sort beats
// sort.Float64s' interface and pdqsort overhead by a wide margin; beyond a
// few dozen elements the O(n^2) worst case loses to the generic sort.
const insertionSortMax = 32

// insertionSort sorts s ascending in place. It is exact-equivalent to
// sort.Float64s for any input (see TestSortFastPathMatchesGeneric); NaNs,
// which sort.Float64s leaves in unspecified positions, never reach it —
// checkArgs rejects them upstream via the kernel layer.
func insertionSort(s []float64) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// sortedCopy copies x into the scratch buffer and sorts it ascending.
// Small nets (the overwhelming majority in real netlists) take the
// insertion-sort fast path; larger nets fall back to the generic sort.
func (ev *Evaluator) sortedCopy(x []float64) []float64 {
	s := append(ev.scratch[:0], x...)
	ev.scratch = s[:0]
	// Degrees 2-4 dominate real netlists; fixed sorting networks avoid the
	// insertion-sort call and its data-dependent inner loop entirely. A
	// network produces the same ascending output as any comparison sort, so
	// everything downstream stays bit-identical.
	switch len(s) {
	case 0, 1:
		return s
	case 2:
		s[0], s[1] = min(s[0], s[1]), max(s[0], s[1])
		return s
	case 3:
		s[0], s[1] = min(s[0], s[1]), max(s[0], s[1])
		s[1], s[2] = min(s[1], s[2]), max(s[1], s[2])
		s[0], s[1] = min(s[0], s[1]), max(s[0], s[1])
		return s
	case 4:
		s[0], s[1] = min(s[0], s[1]), max(s[0], s[1])
		s[2], s[3] = min(s[2], s[3]), max(s[2], s[3])
		s[0], s[2] = min(s[0], s[2]), max(s[0], s[2])
		s[1], s[3] = min(s[1], s[3]), max(s[1], s[3])
		s[1], s[2] = min(s[1], s[2]), max(s[1], s[2])
		return s
	}
	if len(s) <= insertionSortMax {
		insertionSort(s)
	} else {
		if ev.Stats != nil {
			ev.Stats.LargeSorts.Add(1)
		}
		sort.Float64s(s)
	}
	return s
}

// count records one evaluation's branch outcome into the attached Stats.
func (ev *Evaluator) count(degenerate bool) {
	if ev.Stats == nil {
		return
	}
	ev.Stats.Evals.Add(1)
	if degenerate {
		ev.Stats.Degenerate.Add(1)
	}
}

// checkArgs panics on invalid inputs; these are programming errors, not
// runtime conditions.
func checkArgs(x []float64, t float64) {
	if len(x) == 0 {
		panic("moreau: empty coordinate slice")
	}
	if !(t > 0) || math.IsInf(t, 0) {
		panic("moreau: smoothing parameter t must be positive and finite")
	}
}

// Envelope returns the Moreau envelope W_e^t(x) of the net HPWL at the
// (unsorted) coordinates x.
func (ev *Evaluator) Envelope(x []float64, t float64) float64 {
	checkArgs(x, t)
	if len(x) == 1 {
		ev.count(true)
		return 0
	}
	s := ev.sortedCopy(x)
	r := Levels(s, t)
	ev.count(r.Degenerate)
	envelopeFromLevels(x, t, &r)
	return r.Value
}

// EnvelopeGrad computes the envelope value and, when grad is non-nil, writes
// dW_e^t/dx_i into grad[i] (grad must have len(x) entries). It returns the
// full Result including the water levels.
func (ev *Evaluator) EnvelopeGrad(x []float64, t float64, grad []float64) Result {
	checkArgs(x, t)
	if len(x) == 1 {
		ev.count(true)
		if grad != nil {
			grad[0] = 0
		}
		return Result{Tau1: x[0], Tau2: x[0], Degenerate: true}
	}
	s := ev.sortedCopy(x)
	r := Levels(s, t)
	ev.count(r.Degenerate)
	envelopeFromLevels(x, t, &r)
	if grad != nil {
		if r.Degenerate {
			m := r.Tau1
			inv := 1 / t
			for i, v := range x {
				grad[i] = (v - m) * inv
			}
		} else {
			inv := 1 / t
			for i, v := range x {
				switch {
				case v > r.Tau2:
					grad[i] = (v - r.Tau2) * inv
				case v < r.Tau1:
					grad[i] = (v - r.Tau1) * inv
				default:
					grad[i] = 0
				}
			}
		}
	}
	return r
}

// GradBatch evaluates the paper's wirelength model W_e^t + t for a
// contiguous run of nets in one call, streaming over flat coordinate lanes.
// starts (B+1 ascending entries, typically a sub-slice of a netlist's
// NetStart array) delimits net b's coordinates at
// coords[starts[b]-starts[0] : starts[b+1]-starts[0]]; weights[b] scales net
// b's contribution. The return value is sum_b weights[b]*(W_e^t(x_b)+t),
// and when grads is non-nil (same length as coords) grads[i] is overwritten
// with weights[b]*dW_e^t/dx_i — the per-element arithmetic is identical to
// looping EnvelopeGrad net by net and scaling afterwards, so results are
// bit-equal to the per-net path. Empty nets contribute nothing. Batching
// hoists the argument checks and the smoothing-parameter reciprocal out of
// the per-net loop and keeps every access on the contiguous lane.
func (ev *Evaluator) GradBatch(starts []int32, coords []float64, t float64, weights []float64, grads []float64) float64 {
	if !(t > 0) || math.IsInf(t, 0) {
		panic("moreau: smoothing parameter t must be positive and finite")
	}
	if len(starts) == 0 {
		return 0
	}
	if len(weights) != len(starts)-1 {
		panic("moreau: GradBatch weights length mismatch")
	}
	base := starts[0]
	inv := 1 / t
	total := 0.0
	for b := 0; b+1 < len(starts); b++ {
		s0 := int(starts[b] - base)
		s1 := int(starts[b+1] - base)
		if s1 == s0 {
			continue
		}
		w := weights[b]
		x := coords[s0:s1]
		if len(x) == 1 {
			ev.count(true)
			if grads != nil {
				grads[s0] = 0
			}
			total += w * t
			continue
		}
		s := ev.sortedCopy(x)
		r := Levels(s, t)
		ev.count(r.Degenerate)
		envelopeFromLevels(x, t, &r)
		total += w * (r.Value + t)
		if grads == nil {
			continue
		}
		g := grads[s0:s1]
		if r.Degenerate {
			m := r.Tau1
			for i, v := range x {
				g[i] = w * ((v - m) * inv)
			}
		} else {
			for i, v := range x {
				switch {
				case v > r.Tau2:
					g[i] = w * ((v - r.Tau2) * inv)
				case v < r.Tau1:
					g[i] = w * ((v - r.Tau1) * inv)
				default:
					g[i] = 0
				}
			}
		}
	}
	return total
}

// Prox computes prox_{tW_e}(x), writing the proximal point into u (which
// must have len(x) entries), and returns the evaluation Result.
func (ev *Evaluator) Prox(x []float64, t float64, u []float64) Result {
	checkArgs(x, t)
	if len(u) != len(x) {
		panic("moreau: prox output length mismatch")
	}
	if len(x) == 1 {
		ev.count(true)
		u[0] = x[0]
		return Result{Tau1: x[0], Tau2: x[0], Degenerate: true}
	}
	s := ev.sortedCopy(x)
	r := Levels(s, t)
	ev.count(r.Degenerate)
	envelopeFromLevels(x, t, &r)
	if r.Degenerate {
		for i := range u {
			u[i] = r.Tau1
		}
		return r
	}
	for i, v := range x {
		switch {
		case v > r.Tau2:
			u[i] = r.Tau2
		case v < r.Tau1:
			u[i] = r.Tau1
		default:
			u[i] = v
		}
	}
	return r
}

// Package-level conveniences backed by a throwaway evaluator. Prefer an
// Evaluator in hot loops to avoid per-call allocation.

// Envelope returns W_e^t(x).
func Envelope(x []float64, t float64) float64 {
	var ev Evaluator
	return ev.Envelope(x, t)
}

// EnvelopeGrad returns W_e^t(x) and fills grad if non-nil.
func EnvelopeGrad(x []float64, t float64, grad []float64) Result {
	var ev Evaluator
	return ev.EnvelopeGrad(x, t, grad)
}

// Prox fills u with prox_{tW_e}(x) and returns the evaluation Result.
func Prox(x []float64, t float64, u []float64) Result {
	var ev Evaluator
	return ev.Prox(x, t, u)
}

// HPWL1D returns the exact one-dimensional net HPWL max(x)-min(x).
func HPWL1D(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	lo, hi := x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// Wirelength returns the paper's approximated wirelength model W_e^t(x) + t.
// The +t offset compensates the envelope's downward bias (Theorem 2) so the
// reported objective tracks HPWL more closely; it does not affect gradients.
func Wirelength(x []float64, t float64) float64 {
	return Envelope(x, t) + t
}
