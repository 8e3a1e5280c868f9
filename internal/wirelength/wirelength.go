// Package wirelength implements the wirelength models compared in the paper
// behind a single interface: the exact (non-differentiable) HPWL, the
// log-sum-exp (LSE) model, the weighted-average (WA) model, the bivariate
// gradient-based BiG model with the CHKS smoothing function, and the paper's
// Moreau-envelope model.
//
// Every model exposes the same two views:
//
//   - a per-net, one-dimensional kernel operating on raw pin coordinates
//     (used by the toy studies of Fig. 1 and by unit tests), and
//   - a whole-design evaluator that assembles pin coordinates from cell
//     positions plus pin offsets, evaluates both axes, and sums each cell's
//     per-pin gradients (used by the global placer).
//
// The smoothing parameter has a per-model meaning (gamma for the
// exponential models, t for the Moreau envelope); ParamKind tells the placer
// which update schedule applies.
package wirelength

import (
	"fmt"
	"math"

	"repro/internal/moreau"
	"repro/internal/netlist"
)

// ParamKind selects the smoothing-parameter schedule a model requires.
type ParamKind int

const (
	// ParamGamma marks exponential models driven by the ePlace
	// gamma(overflow) schedule.
	ParamGamma ParamKind = iota
	// ParamMoreauT marks the Moreau-envelope model driven by the paper's
	// tangent t(overflow) schedule (Eq. 14).
	ParamMoreauT
)

// Kernel is a one-dimensional per-net wirelength approximation: it returns
// the approximate span of the coordinates x under smoothing parameter p and,
// when grad is non-nil, writes the partial derivatives into grad (len(x)).
// Kernels must accept len(x) >= 1.
type Kernel func(x []float64, p float64, grad []float64) float64

// Model is a differentiable wirelength approximation over a whole design.
type Model interface {
	// Name identifies the model in tables ("WA", "LSE", "BiG_CHKS", "ME").
	Name() string
	// ParamKind reports which smoothing schedule the model uses.
	ParamKind() ParamKind
	// WirelengthGrad returns the total weighted approximate wirelength of
	// the design under smoothing parameter p and, when gradX/gradY are
	// non-nil, overwrites them with the objective's gradient w.r.t. each
	// cell's position. gradX and gradY must have d.NumCells() entries.
	WirelengthGrad(d *netlist.Design, p float64, gradX, gradY []float64) float64
}

// TotalHPWL returns the exact total weighted half-perimeter wirelength of
// the design at its current placement. This is the evaluation metric used in
// every table of the paper. It streams over the design's flat SoA pin lanes
// (cell-index, dx, dy) instead of walking 24-byte Pin records, and takes
// each net's extremes with the builtin min and max, which are exact: on
// finite coordinates the value is bit-identical to the record walk, and a
// NaN coordinate makes it NaN.
func TotalHPWL(d *netlist.Design) float64 {
	ln := d.PinLanes()
	pc, pdx, pdy := ln.PinCell, ln.PinDx, ln.PinDy
	X, Y := d.X, d.Y
	total := 0.0
	for e := range d.Nets {
		s0, s1 := int(d.NetStart[e]), int(d.NetStart[e+1])
		if s1 == s0 {
			continue
		}
		c := pc[s0]
		xl := X[c] + pdx[s0]
		yl := Y[c] + pdy[s0]
		xh, yh := xl, yl
		for i := s0 + 1; i < s1; i++ {
			c := pc[i]
			x := X[c] + pdx[i]
			y := Y[c] + pdy[i]
			xl = min(xl, x)
			xh = max(xh, x)
			yl = min(yl, y)
			yh = max(yh, y)
		}
		total += d.Nets[e].Weight * ((xh - xl) + (yh - yl))
	}
	return total
}

// NetHPWL is the exact span kernel max(x)-min(x). Its grad output is a
// canonical subgradient (Eq. 17 of the paper): 1/n_max at maxima, -1/n_min
// at minima. Provided for reference flows and tests.
func NetHPWL(x []float64, _ float64, grad []float64) float64 {
	lo, hi := spanExtremes(x)
	if grad != nil {
		nmin, nmax := 0, 0
		for _, v := range x {
			if v == lo {
				nmin++
			}
			if v == hi {
				nmax++
			}
		}
		for i, v := range x {
			g := 0.0
			if v == hi {
				g += 1 / float64(nmax)
			}
			if v == lo {
				g -= 1 / float64(nmin)
			}
			grad[i] = g
		}
	}
	return hi - lo
}

// netChunk is the number of nets in one unit of the net pass. It bounds the
// model's scratch lanes, and the wirelength total is summed per chunk and
// then over chunks in chunk order.
const netChunk = 256

// kernelModel adapts a per-net Kernel (or a Moreau batch evaluator) into a
// whole-design Model streaming over the design's SoA pin lanes. One
// evaluation is a single pass over fixed-size chunks of netChunk nets: it
// gathers a chunk's pin coordinates, runs the kernel, which writes each
// pin's weight-scaled gradient into the chunk lanes gx/gy, and then adds
// those entries to their cells in ascending pin order. That is the order of
// a net-by-net scatter, so every cell receives the same additions in the
// same order as the historical pointer-walk evaluator.
//
// A kernelModel is not safe for concurrent WirelengthGrad calls: its lanes
// and kernel scratch are reused across calls. Create one model per
// concurrent placement run.
type kernelModel struct {
	name string
	kind ParamKind
	// kernel is the per-net kernel (it may keep private scratch). batch,
	// when non-nil, replaces it with a Moreau batch evaluator: each chunk
	// evaluates in one GradBatch call per axis.
	kernel Kernel
	batch  *moreau.Evaluator
	// cx, cy are the gathered pin coordinates of one chunk and gx, gy its
	// weight-scaled pin gradients, indexed by pin position relative to the
	// chunk's first pin; wts is the chunk's per-net weight lane for batch
	// kernels. All grow on demand and are reused, so the steady state
	// allocates nothing.
	cx, cy, gx, gy []float64
	wts            []float64
}

// NewKernelModel wraps a one-dimensional kernel as a full-design Model.
func NewKernelModel(name string, kind ParamKind, k Kernel) Model {
	return &kernelModel{name: name, kind: kind, kernel: k}
}

func (m *kernelModel) Name() string         { return m.name }
func (m *kernelModel) ParamKind() ParamKind { return m.kind }

func (m *kernelModel) WirelengthGrad(d *netlist.Design, p float64, gradX, gradY []float64) float64 {
	grad := gradX != nil
	if grad {
		clear(gradX[:d.NumCells()])
		clear(gradY[:d.NumCells()])
	}
	ln := d.PinLanes()
	total := 0.0
	for lo := 0; lo < d.NumNets(); lo += netChunk {
		hi := min(lo+netChunk, d.NumNets())
		pinLo, pinHi := m.gather(d, ln, lo, hi)
		if m.batch != nil {
			total += m.evalBatchRange(d, lo, hi, pinLo, pinHi, p, grad)
		} else {
			total += m.evalKernelRange(d, lo, hi, pinLo, p, grad)
		}
		if grad {
			gx, gy := m.gx[:pinHi-pinLo], m.gy[:pinHi-pinLo]
			for i, c := range ln.PinCell[pinLo:pinHi] {
				gradX[c] += gx[i]
				gradY[c] += gy[i]
			}
		}
	}
	if h := GradHook; h != nil && grad {
		h(m.name, gradX, gradY)
	}
	return total
}

// ByName constructs one of the wirelength models: "LSE", "WA", "BiG_CHKS",
// "BiG_WA", "ME" (ours), or "HPWL" (exact subgradient reference). Each name
// is also accepted in lower case.
func ByName(name string) (Model, error) {
	return New(name, nil)
}

// New constructs the named model (see ByName). When stats is non-nil and
// the model is the Moreau envelope, its evaluator reports branch statistics
// (evaluations, degenerate collapses, large sorts) into stats; other models
// ignore stats.
func New(name string, stats *moreau.Stats) (Model, error) {
	switch name {
	case "LSE", "lse":
		return NewLSE(), nil
	case "WA", "wa":
		return NewWA(), nil
	case "BiG_CHKS", "big_chks", "BIG_CHKS", "big":
		return NewBiGCHKS(), nil
	case "BiG_WA", "big_wa", "BIG_WA":
		return NewBiGWA(), nil
	case "HPWL", "hpwl":
		return NewKernelModel("HPWL", ParamGamma, NetHPWL), nil
	case "ME", "me", "moreau", "Moreau":
		return newMoreau(stats), nil
	}
	return nil, fmt.Errorf("wirelength: unknown model %q (want LSE, WA, BiG_CHKS, BiG_WA, ME, or HPWL)", name)
}

// AllModelNames lists the models compared in Tables II/III, in table order.
func AllModelNames() []string { return []string{"BiG_CHKS", "LSE", "WA", "ME"} }

// spanExtremes returns min, max of x; a NaN anywhere in x makes both NaN.
func spanExtremes(x []float64) (lo, hi float64) {
	lo, hi = x[0], x[0]
	for _, v := range x[1:] {
		lo = min(lo, v)
		hi = max(hi, v)
	}
	return lo, hi
}

// expLanes carries one net's per-pin exponentials from an exponential
// kernel's value loop to its gradient loop; reused across nets.
type expLanes struct {
	hi, lo []float64
}

// ensure returns the lanes resliced to n pins, growing them on demand.
func (s *expLanes) ensure(n int) (hi, lo []float64) {
	if cap(s.hi) < n {
		s.hi = make([]float64, n)
		s.lo = make([]float64, n)
	}
	return s.hi[:n], s.lo[:n]
}

// checkKernelArgs validates common kernel preconditions.
func checkKernelArgs(x []float64, p float64) {
	if len(x) == 0 {
		panic("wirelength: empty coordinate slice")
	}
	if !(p > 0) || math.IsInf(p, 0) {
		panic("wirelength: smoothing parameter must be positive and finite")
	}
}
