package wirelength

import (
	"repro/internal/moreau"
	"repro/internal/netlist"
)

// laneScratch holds one evaluation worker's contiguous streaming lanes: pin
// coordinates gathered from cell positions plus offsets, and the per-net
// weight lane of the batch path. Buffers grow on demand and are reused
// across evaluations, so the steady state performs no allocations. Each
// worker owns exactly one laneScratch; nothing here is shared.
type laneScratch struct {
	// cx, cy are the gathered pin X/Y coordinate lanes for the worker's
	// net range, indexed by pin position relative to the range start.
	cx, cy []float64
	// wts is the per-net weight lane handed to batch kernels.
	wts []float64
}

// ensure grows the lanes to hold pins coordinates and nets weights.
func (s *laneScratch) ensure(pins, nets int) {
	if cap(s.cx) < pins {
		s.cx = make([]float64, pins)
		s.cy = make([]float64, pins)
	}
	if cap(s.wts) < nets {
		s.wts = make([]float64, nets)
	}
}

// gather fills the coordinate lanes for every pin of nets [lo, hi) in one
// branch-free pass over the design's SoA pin lanes: cx[i] = X[cell]+dx,
// cy[i] = Y[cell]+dy, indexed relative to the range's first pin. It returns
// the absolute pin range.
func (s *laneScratch) gather(d *netlist.Design, ln *netlist.Lanes, lo, hi int) (pinLo, pinHi int) {
	pinLo = int(d.NetStart[lo])
	pinHi = int(d.NetStart[hi])
	s.ensure(pinHi-pinLo, hi-lo)
	pc := ln.PinCell[pinLo:pinHi]
	dx := ln.PinDx[pinLo:pinHi:pinHi]
	dy := ln.PinDy[pinLo:pinHi:pinHi]
	cx := s.cx[:len(pc)]
	cy := s.cy[:len(pc)]
	X, Y := d.X, d.Y
	for i := range pc {
		c := pc[i]
		cx[i] = X[c] + dx[i]
		cy[i] = Y[c] + dy[i]
	}
	return pinLo, pinHi
}

// evalKernelRange evaluates nets [lo, hi) with a per-net kernel over the
// gathered lanes: per net, the X kernel writes its gradient into the net's
// slice of the pin lane gx, which is then scaled by the net weight, and
// likewise for Y. Every per-element operation matches the historical
// pointer-walk evaluator, so the weighted per-pin gradients are
// bit-identical to its scatter terms. gx/gy (indexed like Design.Pins) are
// both nil, to skip gradient work, or both non-nil.
func evalKernelRange(d *netlist.Design, ln *netlist.Lanes, s *laneScratch, k Kernel, lo, hi int, p float64, gx, gy []float64) float64 {
	if hi == lo {
		return 0
	}
	pinLo, _ := s.gather(d, ln, lo, hi)
	sum := 0.0
	for e := lo; e < hi; e++ {
		s0, s1 := int(d.NetStart[e]), int(d.NetStart[e+1])
		if s1 == s0 {
			continue
		}
		w := d.Nets[e].Weight
		var g []float64
		if gx != nil {
			g = gx[s0:s1]
		}
		sum += w * k(s.cx[s0-pinLo:s1-pinLo], p, g)
		for i := range g {
			g[i] = w * g[i]
		}
		if gy != nil {
			g = gy[s0:s1]
		}
		sum += w * k(s.cy[s0-pinLo:s1-pinLo], p, g)
		for i := range g {
			g[i] = w * g[i]
		}
	}
	return sum
}

// evalBatchRange evaluates nets [lo, hi) with the Moreau batch kernel: one
// gather pass, then one GradBatch call per axis over the contiguous lanes,
// which writes weight-scaled per-pin gradients straight into the net range's
// slice of the pin lanes gx/gy (same per-element arithmetic as the per-net
// path). The scalar total sums all X terms before all Y terms within the
// range. gx/gy are both nil, to skip gradient work, or both non-nil.
func evalBatchRange(d *netlist.Design, ln *netlist.Lanes, s *laneScratch, ev *moreau.Evaluator, lo, hi int, t float64, gx, gy []float64) float64 {
	if hi == lo {
		return 0
	}
	pinLo, pinHi := s.gather(d, ln, lo, hi)
	n := pinHi - pinLo
	wts := s.wts[:hi-lo]
	for b := range wts {
		wts[b] = d.Nets[lo+b].Weight
	}
	starts := d.NetStart[lo : hi+1]
	var g []float64
	if gx != nil {
		g = gx[pinLo:pinHi]
	}
	sum := ev.GradBatch(starts, s.cx[:n], t, wts, g)
	if gy != nil {
		g = gy[pinLo:pinHi]
	}
	return sum + ev.GradBatch(starts, s.cy[:n], t, wts, g)
}
