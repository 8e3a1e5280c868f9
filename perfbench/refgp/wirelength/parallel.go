package wirelength

import (
	"fmt"

	"repro/perfbench/refgp/moreau"
	"repro/perfbench/refgp/netlist"
	"repro/perfbench/refgp/parallel"
)

// parallelModel evaluates a kernel model with a pool of goroutines, one
// kernel instance (or Moreau batch evaluator), one lane scratch, and one
// gradient accumulator per worker, reduced after the barrier. Each worker
// runs the same SoA gather/kernel/scatter passes as the sequential
// evaluator over its own contiguous net range, so per-cell gradients are
// bit-identical to the sequential path up to the worker-order summation of
// the per-worker accumulators (workers own disjoint net ranges but cells
// are shared).
//
// A parallelModel is not safe for concurrent WirelengthGrad calls on the
// same value: the workers it spawns own its per-worker scratch (and
// parameters pass through struct fields so the steady state allocates
// nothing), but two overlapping top-level calls would share both. Create
// one model per concurrent placement run (ParallelByName is cheap).
type parallelModel struct {
	name    string
	kind    ParamKind
	workers int
	kernels []Kernel
	// batch, when non-nil, holds one Moreau batch evaluator per worker
	// (private sort scratch, shared atomic Stats) and selects the batch
	// path.
	batch []*moreau.Evaluator

	// Per-call scratch, reused across evaluations: totals holds one
	// partial sum per worker; gxs/gys hold per-worker gradient
	// accumulators, (re)sized only when the design's cell count changes;
	// lanes holds each worker's gather/scatter lanes.
	totals   []float64
	gxs, gys [][]float64
	lanes    []laneScratch

	// Prebuilt worker loop body and its per-call parameters: closures
	// built inside WirelengthGrad would escape to the heap on every call,
	// so the body is constructed once and reads these fields instead.
	d        *netlist.Design
	ln       *netlist.Lanes
	prm      float64
	needGrad bool
	fnEval   func(w, lo, hi int)
}

// Parallelize wraps a kernel-backed model (anything built by
// NewKernelModel or ByName) in a fixed-size worker pool. Moreau batch
// models get one batch evaluator per worker sharing the base model's Stats;
// other models call factory once per worker for private kernel scratch.
// workers <= 1 returns the model unchanged.
func Parallelize(m Model, workers int, factory func() Kernel) (Model, error) {
	if workers <= 1 {
		return m, nil
	}
	p := &parallelModel{
		name:    m.Name(),
		kind:    m.ParamKind(),
		workers: workers,
		totals:  make([]float64, workers),
		gxs:     make([][]float64, workers),
		gys:     make([][]float64, workers),
		lanes:   make([]laneScratch, workers),
	}
	if km, ok := m.(*kernelModel); ok && km.batch != nil {
		for w := 0; w < workers; w++ {
			ev := moreau.NewEvaluator(64)
			ev.Stats = km.batch.Stats
			p.batch = append(p.batch, ev)
		}
	} else {
		if factory == nil {
			return nil, fmt.Errorf("wirelength: Parallelize needs a kernel factory")
		}
		for w := 0; w < workers; w++ {
			p.kernels = append(p.kernels, factory())
		}
	}
	p.fnEval = func(w, lo, hi int) {
		s := &p.lanes[w]
		var gx, gy []float64
		if p.needGrad {
			gx, gy = p.gxs[w], p.gys[w]
			for i := range gx {
				gx[i] = 0
				gy[i] = 0
			}
		}
		if p.batch != nil {
			p.totals[w] = evalBatchRange(p.d, p.ln, s, p.batch[w], lo, hi, p.prm, gx, gy)
		} else {
			p.totals[w] = evalKernelRange(p.d, p.ln, s, p.kernels[w], lo, hi, p.prm, gx, gy)
		}
	}
	return p, nil
}

// ParallelByName builds a parallel version of a named model.
func ParallelByName(name string, workers int) (Model, error) {
	return ParallelByNameStats(name, workers, nil)
}

// ParallelByNameStats is ParallelByName with an optional Moreau branch
// counter shared across every worker's evaluator (see ByNameStats).
func ParallelByNameStats(name string, workers int, stats *moreau.Stats) (Model, error) {
	base, err := ByNameStats(name, stats)
	if err != nil {
		return nil, err
	}
	var factory func() Kernel
	switch name {
	case "LSE", "lse":
		factory = func() Kernel { return NetLSE }
	case "WA", "wa":
		factory = func() Kernel { return NetWA }
	case "BiG_CHKS", "big_chks", "BIG_CHKS", "big":
		factory = NewBiGKernel
	case "BiG_WA", "big_wa", "BIG_WA":
		factory = NewBiGWAKernel
	case "ME", "me", "moreau", "Moreau":
		factory = func() Kernel { return NewMoreauKernelStats(stats) }
	case "HPWL", "hpwl":
		factory = func() Kernel { return NetHPWL }
	}
	return Parallelize(base, workers, factory)
}

func (m *parallelModel) Name() string         { return m.name }
func (m *parallelModel) ParamKind() ParamKind { return m.kind }

// ensureGradScratch (re)sizes the per-worker gradient accumulators to n
// cells. In the steady state (same design every call) this is a single
// length comparison; the resize path only runs when the cell count changes.
func (m *parallelModel) ensureGradScratch(n int) {
	if len(m.gxs[0]) == n {
		return
	}
	for w := range m.gxs {
		m.gxs[w] = make([]float64, n)
		m.gys[w] = make([]float64, n)
	}
}

func (m *parallelModel) WirelengthGrad(d *netlist.Design, p float64, gradX, gradY []float64) float64 {
	n := d.NumCells()
	needGrad := gradX != nil
	if needGrad {
		m.ensureGradScratch(n)
	}

	numNets := d.NumNets()
	active := parallel.Active(m.workers, numNets)
	m.d, m.ln, m.prm, m.needGrad = d, d.PinLanes(), p, needGrad
	parallel.For(m.workers, numNets, m.fnEval)

	total := 0.0
	for w := 0; w < active; w++ {
		total += m.totals[w]
	}
	if needGrad {
		for i := range gradX {
			gradX[i] = 0
			gradY[i] = 0
		}
		for w := 0; w < active; w++ {
			gx, gy := m.gxs[w], m.gys[w]
			for i := 0; i < n; i++ {
				gradX[i] += gx[i]
				gradY[i] += gy[i]
			}
		}
		if h := GradHook; h != nil {
			h(m.Name(), gradX, gradY)
		}
	}
	return total
}
