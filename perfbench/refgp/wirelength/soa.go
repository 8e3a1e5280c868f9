package wirelength

import (
	"repro/perfbench/refgp/moreau"
	"repro/perfbench/refgp/netlist"
)

// laneScratch holds one evaluation worker's contiguous streaming lanes: pin
// coordinates gathered from cell positions plus offsets, the per-pin kernel
// gradient lane, and the per-net weight lane of the batch path. Buffers grow
// on demand and are reused across evaluations, so the steady state performs
// no allocations. Each worker owns exactly one laneScratch; nothing here is
// shared.
type laneScratch struct {
	// cx, cy are the gathered pin X/Y coordinate lanes for the worker's
	// net range, indexed by pin position relative to the range start.
	cx, cy []float64
	// pg receives per-pin kernel gradients; it is consumed by the scatter
	// pass after each axis, so one lane serves both axes.
	pg []float64
	// wts is the per-net weight lane handed to batch kernels.
	wts []float64
}

// ensure grows the lanes to hold pins coordinates and nets weights.
func (s *laneScratch) ensure(pins, nets int) {
	if cap(s.cx) < pins {
		s.cx = make([]float64, pins)
		s.cy = make([]float64, pins)
		s.pg = make([]float64, pins)
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
// gathered lanes: one gather pass, then per net a kernel call on the
// contiguous coordinate slice followed by a weighted scatter of the
// gradient back onto cells. The per-net X-kernel/X-scatter/Y-kernel/
// Y-scatter order and every per-element operation match the historical
// pointer-walk evaluator exactly, so values and gradients are bit-identical
// to it. gx/gy may be nil to skip gradient work.
func evalKernelRange(d *netlist.Design, ln *netlist.Lanes, s *laneScratch, k Kernel, lo, hi int, p float64, gx, gy []float64) float64 {
	if hi == lo {
		return 0
	}
	pinLo, _ := s.gather(d, ln, lo, hi)
	pc := ln.PinCell
	pg := s.pg
	sum := 0.0
	for e := lo; e < hi; e++ {
		s0 := int(d.NetStart[e]) - pinLo
		s1 := int(d.NetStart[e+1]) - pinLo
		if s1 == s0 {
			continue
		}
		w := d.Nets[e].Weight
		var g []float64
		if gx != nil {
			g = pg[s0:s1]
		}
		sum += w * k(s.cx[s0:s1], p, g)
		if gx != nil {
			for i := s0; i < s1; i++ {
				gx[pc[pinLo+i]] += w * pg[i]
			}
		}
		sum += w * k(s.cy[s0:s1], p, g)
		if gy != nil {
			for i := s0; i < s1; i++ {
				gy[pc[pinLo+i]] += w * pg[i]
			}
		}
	}
	return sum
}

// evalBatchRange evaluates nets [lo, hi) with the Moreau batch kernel: one
// gather pass, one GradBatch call per axis over the contiguous lanes (which
// writes weight-scaled per-pin gradients), and one flat scatter pass per
// axis. Gradients are bit-identical to the per-net path (same per-element
// arithmetic, same net-order scatter); the scalar total sums all X terms
// before all Y terms within the range, a reassociation of the historical
// interleaved sum that agrees to ~1e-12 relative. gx/gy may be nil to skip
// gradient work.
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
	var pg []float64
	if gx != nil || gy != nil {
		pg = s.pg[:n]
	}
	sum := ev.GradBatch(starts, s.cx[:n], t, wts, pg)
	if gx != nil {
		pc := ln.PinCell[pinLo:pinHi]
		for i, c := range pc {
			gx[c] += pg[i]
		}
	}
	sum += ev.GradBatch(starts, s.cy[:n], t, wts, pg)
	if gy != nil {
		pc := ln.PinCell[pinLo:pinHi]
		for i, c := range pc {
			gy[c] += pg[i]
		}
	}
	return sum
}
