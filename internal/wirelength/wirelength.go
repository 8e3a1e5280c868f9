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
	"repro/internal/parallel"
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

// netChunk is the number of nets in one unit of the net pass. The
// wirelength total is summed per chunk and then over chunks in chunk order,
// so the chunk size, not the worker count, fixes the order of that sum.
const netChunk = 256

// kernelModel adapts per-net Kernels (or Moreau batch evaluators) into a
// whole-design Model streaming over the design's SoA pin lanes. One
// evaluation runs two passes on a pool of goroutines:
//
//   - the net pass walks fixed-size chunks of netChunk nets: it gathers a
//     chunk's pin coordinates, runs the kernels, writes each pin's
//     weight-scaled gradient into the pin lanes gx/gy (indexed like
//     Design.Pins), and writes the chunk's wirelength into totals;
//   - the cell pass sums each cell's pin-lane entries in Design.CellPins
//     order.
//
// Every lane entry and chunk total has exactly one writer, and a cell adds
// its pins' terms in ascending pin order, which is the order a serial
// net-by-net scatter adds them. Values and gradients are therefore
// bit-identical at every worker count.
//
// A kernelModel is not safe for concurrent WirelengthGrad calls: the lanes
// and per-worker scratch are reused across calls. Create one model per
// concurrent placement run.
type kernelModel struct {
	name string
	kind ParamKind
	// kernels holds one per-net kernel per worker (kernels may keep private
	// scratch). batch, when non-nil, holds one Moreau batch evaluator per
	// worker instead and selects the batch path: whole net ranges evaluate
	// in single GradBatch calls.
	kernels []Kernel
	batch   []*moreau.Evaluator
	// lanes holds each worker's gather scratch; gx, gy are the pin gradient
	// lanes and totals the per-chunk wirelength partials. All grow on demand
	// and are reused, so the steady state allocates nothing.
	lanes  []laneScratch
	gx, gy []float64
	totals []float64

	// Prebuilt pass bodies and their per-call parameters: closures built
	// inside WirelengthGrad would escape to the heap on every call.
	d            *netlist.Design
	p            float64
	gradX, gradY []float64
	fnNets       func(w, lo, hi int)
	fnCells      func(w, lo, hi int)
}

// NewKernelModel wraps a one-dimensional kernel as a full-design Model that
// evaluates on the caller's goroutine.
func NewKernelModel(name string, kind ParamKind, k Kernel) Model {
	return newKernelModel(name, kind, []Kernel{k}, nil)
}

// newKernelModel builds a model whose worker pool has one entry of kernels
// (or of batch, when non-nil) per worker.
func newKernelModel(name string, kind ParamKind, kernels []Kernel, batch []*moreau.Evaluator) *kernelModel {
	m := &kernelModel{name: name, kind: kind, kernels: kernels, batch: batch}
	m.lanes = make([]laneScratch, max(len(kernels), len(batch)))
	m.fnNets = func(w, lo, hi int) {
		d := m.d
		ln := d.PinLanes()
		s := &m.lanes[w]
		var gx, gy []float64
		if m.gradX != nil {
			gx, gy = m.gx, m.gy
		}
		for c := lo; c < hi; c++ {
			e0 := c * netChunk
			e1 := min(e0+netChunk, d.NumNets())
			if m.batch != nil {
				m.totals[c] = evalBatchRange(d, ln, s, m.batch[w], e0, e1, m.p, gx, gy)
			} else {
				m.totals[c] = evalKernelRange(d, ln, s, m.kernels[w], e0, e1, m.p, gx, gy)
			}
		}
	}
	m.fnCells = func(_, lo, hi int) {
		pins, starts := m.d.CellPins, m.d.CellPinStart
		gx := m.gx
		gy := m.gy[:len(gx)]
		gradX, gradY := m.gradX[lo:hi], m.gradY[lo:hi]
		for i := range gradX {
			sx, sy := 0.0, 0.0
			for _, pi := range pins[starts[lo+i]:starts[lo+i+1]] {
				sx += gx[pi]
				sy += gy[pi]
			}
			gradX[i], gradY[i] = sx, sy
		}
	}
	return m
}

func (m *kernelModel) Name() string         { return m.name }
func (m *kernelModel) ParamKind() ParamKind { return m.kind }

func (m *kernelModel) WirelengthGrad(d *netlist.Design, p float64, gradX, gradY []float64) float64 {
	chunks := (d.NumNets() + netChunk - 1) / netChunk
	if cap(m.totals) < chunks {
		m.totals = make([]float64, chunks)
	}
	if gradX != nil && cap(m.gx) < d.NumPins() {
		m.gx = make([]float64, d.NumPins())
		m.gy = make([]float64, d.NumPins())
	}
	workers := len(m.lanes)
	m.d, m.p, m.gradX, m.gradY = d, p, gradX, gradY
	parallel.For(workers, chunks, m.fnNets)
	if gradX != nil {
		parallel.For(workers, d.NumCells(), m.fnCells)
	}
	total := 0.0
	for _, v := range m.totals[:chunks] {
		total += v
	}
	if h := GradHook; h != nil && gradX != nil {
		h(m.name, gradX, gradY)
	}
	return total
}

// ByName constructs one of the comparison models used in the paper's tables:
// "LSE", "WA", "BiG_CHKS", "ME" (ours), or "HPWL" (exact subgradient
// reference). The lookup is case-insensitive on these exact names. The model
// evaluates on the caller's goroutine; New builds one with a worker pool.
func ByName(name string) (Model, error) {
	return New(name, 1, nil)
}

// New constructs the named model (see ByName) evaluating on a pool of
// workers goroutines; workers <= 1 runs on the caller's goroutine. Values
// and gradients are bit-identical at every worker count. When stats is
// non-nil and the model is the Moreau envelope, its evaluators report branch
// statistics (evaluations, degenerate collapses, large sorts) into stats;
// other models ignore stats.
func New(name string, workers int, stats *moreau.Stats) (Model, error) {
	workers = max(workers, 1)
	var (
		canon  string
		kernel func() Kernel
	)
	switch name {
	case "LSE", "lse":
		canon, kernel = "LSE", func() Kernel { return NetLSE }
	case "WA", "wa":
		canon, kernel = "WA", func() Kernel { return NetWA }
	case "BiG_CHKS", "big_chks", "BIG_CHKS", "big":
		canon, kernel = "BiG_CHKS", NewBiGKernel
	case "BiG_WA", "big_wa", "BIG_WA":
		canon, kernel = "BiG_WA", NewBiGWAKernel
	case "HPWL", "hpwl":
		canon, kernel = "HPWL", func() Kernel { return NetHPWL }
	case "ME", "me", "moreau", "Moreau":
		return newMoreau(workers, stats), nil
	default:
		return nil, fmt.Errorf("wirelength: unknown model %q (want LSE, WA, BiG_CHKS, BiG_WA, ME, or HPWL)", name)
	}
	kernels := make([]Kernel, workers)
	for w := range kernels {
		kernels[w] = kernel()
	}
	return newKernelModel(canon, ParamGamma, kernels, nil), nil
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

// checkKernelArgs validates common kernel preconditions.
func checkKernelArgs(x []float64, p float64) {
	if len(x) == 0 {
		panic("wirelength: empty coordinate slice")
	}
	if !(p > 0) || math.IsInf(p, 0) {
		panic("wirelength: smoothing parameter must be positive and finite")
	}
}
