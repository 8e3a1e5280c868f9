package wirelength

import "repro/internal/netlist"

// ensure grows the chunk lanes to hold pins coordinates and nets weights.
func (m *kernelModel) ensure(pins, nets int) {
	if cap(m.cx) < pins {
		m.cx = make([]float64, pins)
		m.cy = make([]float64, pins)
		m.gx = make([]float64, pins)
		m.gy = make([]float64, pins)
	}
	if cap(m.wts) < nets {
		m.wts = make([]float64, nets)
	}
}

// gather fills the coordinate lanes for every pin of nets [lo, hi) in one
// branch-free pass over the design's SoA pin lanes: cx[i] = X[cell]+dx,
// cy[i] = Y[cell]+dy, indexed relative to the range's first pin. It returns
// the absolute pin range.
func (m *kernelModel) gather(d *netlist.Design, ln *netlist.Lanes, lo, hi int) (pinLo, pinHi int) {
	pinLo = int(d.NetStart[lo])
	pinHi = int(d.NetStart[hi])
	m.ensure(pinHi-pinLo, hi-lo)
	pc := ln.PinCell[pinLo:pinHi]
	dx := ln.PinDx[pinLo:pinHi:pinHi]
	dy := ln.PinDy[pinLo:pinHi:pinHi]
	cx := m.cx[:len(pc)]
	cy := m.cy[:len(pc)]
	X, Y := d.X, d.Y
	for i := range pc {
		c := pc[i]
		cx[i] = X[c] + dx[i]
		cy[i] = Y[c] + dy[i]
	}
	return pinLo, pinHi
}

// evalKernelRange evaluates the gathered nets [lo, hi), whose first pin is
// pinLo, with the per-net kernel: per net, the X kernel writes its gradient
// into the net's slice of the chunk lane gx, which is then scaled by the net
// weight, and likewise for Y. Every per-element operation matches the
// historical pointer-walk evaluator, so the weighted per-pin gradients are
// bit-identical to its scatter terms. grad false skips gradient work.
func (m *kernelModel) evalKernelRange(d *netlist.Design, lo, hi, pinLo int, p float64, grad bool) float64 {
	sum := 0.0
	for e := lo; e < hi; e++ {
		s0, s1 := int(d.NetStart[e])-pinLo, int(d.NetStart[e+1])-pinLo
		if s1 == s0 {
			continue
		}
		w := d.Nets[e].Weight
		var g []float64
		if grad {
			g = m.gx[s0:s1]
		}
		sum += w * m.kernel(m.cx[s0:s1], p, g)
		for i := range g {
			g[i] = w * g[i]
		}
		if grad {
			g = m.gy[s0:s1]
		}
		sum += w * m.kernel(m.cy[s0:s1], p, g)
		for i := range g {
			g[i] = w * g[i]
		}
	}
	return sum
}

// evalBatchRange evaluates the gathered nets [lo, hi), spanning pins
// [pinLo, pinHi), with the Moreau batch kernel: one GradBatch call per axis
// over the contiguous lanes, which writes weight-scaled per-pin gradients
// straight into the chunk lanes gx/gy (same per-element arithmetic as the
// per-net path). The scalar total sums all X terms before all Y terms within
// the range. grad false skips gradient work.
func (m *kernelModel) evalBatchRange(d *netlist.Design, lo, hi, pinLo, pinHi int, t float64, grad bool) float64 {
	n := pinHi - pinLo
	wts := m.wts[:hi-lo]
	for b := range wts {
		wts[b] = d.Nets[lo+b].Weight
	}
	starts := d.NetStart[lo : hi+1]
	var g []float64
	if grad {
		g = m.gx[:n]
	}
	sum := m.batch.GradBatch(starts, m.cx[:n], t, wts, g)
	if grad {
		g = m.gy[:n]
	}
	return sum + m.batch.GradBatch(starts, m.cy[:n], t, wts, g)
}
