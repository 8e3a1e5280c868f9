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
//     positions plus pin offsets, evaluates both axes, and scatters the
//     gradient back onto cells (used by the global placer).
//
// The smoothing parameter has a per-model meaning (gamma for the
// exponential models, t for the Moreau envelope); ParamKind tells the placer
// which update schedule applies.
package wirelength

import (
	"fmt"
	"math"
	"sort"

	"repro/perfbench/refgp/moreau"
	"repro/perfbench/refgp/netlist"
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
// (cell-index, dx, dy) instead of walking 24-byte Pin records; the
// comparison order matches the record walk exactly, so the value is
// bit-identical to it.
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
			if x < xl {
				xl = x
			}
			if x > xh {
				xh = x
			}
			if y < yl {
				yl = y
			}
			if y > yh {
				yh = y
			}
		}
		total += d.Nets[e].Weight * ((xh - xl) + (yh - yl))
	}
	return total
}

// NetHPWL is the exact span kernel max(x)-min(x). Its grad output is a
// canonical subgradient (Eq. 17 of the paper): 1/n_max at maxima, -1/n_min
// at minima. Provided for reference flows and tests.
func NetHPWL(x []float64, _ float64, grad []float64) float64 {
	lo, hi := x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
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

// kernelModel adapts a per-net Kernel (or the Moreau batch evaluator) into
// a whole-design Model streaming over the design's SoA pin lanes: one gather
// pass cells→pin coordinates, per-net kernels over contiguous slices of the
// gathered lanes, and a scatter pass back onto cell gradients.
type kernelModel struct {
	name   string
	kind   ParamKind
	kernel Kernel
	// batch, when non-nil, selects the Moreau batch path instead of the
	// per-net kernel: whole net ranges evaluate in single GradBatch calls.
	batch *moreau.Evaluator
	s     laneScratch
}

// NewKernelModel wraps a one-dimensional kernel as a full-design Model.
func NewKernelModel(name string, kind ParamKind, k Kernel) Model {
	return &kernelModel{name: name, kind: kind, kernel: k}
}

func (m *kernelModel) Name() string         { return m.name }
func (m *kernelModel) ParamKind() ParamKind { return m.kind }

func (m *kernelModel) WirelengthGrad(d *netlist.Design, p float64, gradX, gradY []float64) float64 {
	if gradX != nil {
		for i := range gradX {
			gradX[i] = 0
		}
		for i := range gradY {
			gradY[i] = 0
		}
	}
	total := 0.0
	if n := d.NumNets(); n > 0 {
		ln := d.PinLanes()
		if m.batch != nil {
			total = evalBatchRange(d, ln, &m.s, m.batch, 0, n, p, gradX, gradY)
		} else {
			total = evalKernelRange(d, ln, &m.s, m.kernel, 0, n, p, gradX, gradY)
		}
	}
	if h := GradHook; h != nil && gradX != nil {
		h(m.name, gradX, gradY)
	}
	return total
}

// ByName constructs one of the comparison models used in the paper's tables:
// "LSE", "WA", "BiG_CHKS", "ME" (ours), or "HPWL" (exact subgradient
// reference). The lookup is case-insensitive on these exact names.
func ByName(name string) (Model, error) {
	return ByNameStats(name, nil)
}

// ByNameStats is ByName with an optional Moreau branch counter: when stats
// is non-nil and the model is the Moreau envelope, its evaluator reports
// branch statistics (evaluations, degenerate collapses, large sorts) into
// stats. Other models ignore stats.
func ByNameStats(name string, stats *moreau.Stats) (Model, error) {
	switch name {
	case "LSE", "lse":
		return NewLSE(), nil
	case "WA", "wa":
		return NewWA(), nil
	case "BiG_CHKS", "big_chks", "BIG_CHKS", "big":
		return NewBiGCHKS(), nil
	case "BiG_WA", "big_wa", "BIG_WA":
		return NewBiGWA(), nil
	case "ME", "me", "moreau", "Moreau":
		return NewMoreauStats(stats), nil
	case "HPWL", "hpwl":
		return NewKernelModel("HPWL", ParamGamma, NetHPWL), nil
	}
	return nil, fmt.Errorf("wirelength: unknown model %q (want LSE, WA, BiG_CHKS, BiG_WA, ME, or HPWL)", name)
}

// AllModelNames lists the models compared in Tables II/III, in table order.
func AllModelNames() []string { return []string{"BiG_CHKS", "LSE", "WA", "ME"} }

// spanExtremes returns min, max of x.
func spanExtremes(x []float64) (lo, hi float64) {
	lo, hi = x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// sortedCoords returns a sorted copy of x (test/analysis helper).
func sortedCoords(x []float64) []float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return s
}

var _ = sortedCoords // referenced by analysis tests

// checkKernelArgs validates common kernel preconditions.
func checkKernelArgs(x []float64, p float64) {
	if len(x) == 0 {
		panic("wirelength: empty coordinate slice")
	}
	if !(p > 0) || math.IsInf(p, 0) {
		panic("wirelength: smoothing parameter must be positive and finite")
	}
}
