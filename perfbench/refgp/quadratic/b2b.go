package quadratic

import (
	"fmt"
	"math"

	"repro/perfbench/refgp/netlist"
)

// B2BOptions tunes the Bound2Bound placement.
type B2BOptions struct {
	// Rounds of B2B reweighting (each round rebuilds the system from the
	// current placement and solves it); default 8.
	Rounds int
	// CG configures the inner linear solves.
	CG CGOptions
	// MinDist floors pin distances in the B2B weights to keep the system
	// well conditioned (default 1.0, roughly one site).
	MinDist float64
}

// PlaceB2B computes a Bound2Bound quadratic placement of the movable cells
// (in place). The result minimizes the B2B-weighted quadratic wirelength —
// heavily overlapping, as quadratic placements are, but wirelength-aware;
// it serves as an initial placement for the nonlinear placer and as the
// classic quadratic baseline.
//
// The B2B model (Spindler et al., Kraftwerk2) decomposes each p-pin net per
// axis: the two boundary pins connect to each other and to every internal
// pin, each two-pin edge (i,j) weighted w_e * 2 / ((p-1)*|x_i - x_j|), which
// makes the quadratic form's value equal the net's HPWL at the linearization
// point.
func PlaceB2B(d *netlist.Design, opt B2BOptions) error {
	if opt.Rounds <= 0 {
		opt.Rounds = 8
	}
	if opt.MinDist <= 0 {
		opt.MinDist = 1.0
	}
	mov := d.MovableIndices()
	if len(mov) == 0 {
		return fmt.Errorf("quadratic: no movable cells")
	}
	idx := make(map[int32]int, len(mov)) // cell -> system index
	for i, c := range mov {
		idx[int32(c)] = i
	}

	for round := 0; round < opt.Rounds; round++ {
		for axis := 0; axis < 2; axis++ {
			if err := solveAxis(d, mov, idx, axis, opt); err != nil {
				return err
			}
		}
	}
	d.ClampToRegion()
	return nil
}

// solveAxis builds and solves the B2B system for one axis.
func solveAxis(d *netlist.Design, mov []int, idx map[int32]int, axis int, opt B2BOptions) error {
	n := len(mov)
	b := NewBuilder(n)
	rhs := make([]float64, n)

	pinPos := func(p netlist.Pin) float64 {
		if axis == 0 {
			return d.X[p.Cell] + p.Dx
		}
		return d.Y[p.Cell] + p.Dy
	}
	pinOffset := func(p netlist.Pin) float64 {
		if axis == 0 {
			return p.Dx
		}
		return p.Dy
	}

	// addEdge connects pins a and (b) with weight w, handling fixed cells
	// by moving their contribution to the RHS; the variable is the cell's
	// lower-left coordinate, so pin offsets shift the RHS.
	addEdge := func(pa, pb netlist.Pin, w float64) {
		ia, movA := idx[pa.Cell]
		ib, movB := idx[pb.Cell]
		oa, ob := pinOffset(pa), pinOffset(pb)
		switch {
		case movA && movB:
			b.AddDiag(ia, w)
			b.AddDiag(ib, w)
			if ia != ib {
				b.AddSym(ia, ib, -w)
			} else {
				// Two pins of the same cell: the edge is constant;
				// cancel the double-counted diagonal.
				b.AddDiag(ia, -2*w)
			}
			rhs[ia] += w * (ob - oa)
			rhs[ib] += w * (oa - ob)
		case movA:
			b.AddDiag(ia, w)
			rhs[ia] += w * (pinPos(pb) - oa)
		case movB:
			b.AddDiag(ib, w)
			rhs[ib] += w * (pinPos(pa) - ob)
		}
	}

	for e := range d.Nets {
		pins := d.NetPins(e)
		p := len(pins)
		if p < 2 {
			continue
		}
		// Boundary pins on this axis.
		lo, hi := 0, 0
		for i := 1; i < p; i++ {
			if pinPos(pins[i]) < pinPos(pins[lo]) {
				lo = i
			}
			if pinPos(pins[i]) > pinPos(pins[hi]) {
				hi = i
			}
		}
		if lo == hi {
			hi = (lo + 1) % p
		}
		we := d.Nets[e].Weight * 2 / float64(p-1)
		weight := func(a, b netlist.Pin) float64 {
			dist := math.Abs(pinPos(a) - pinPos(b))
			if dist < opt.MinDist {
				dist = opt.MinDist
			}
			return we / dist
		}
		addEdge(pins[lo], pins[hi], weight(pins[lo], pins[hi]))
		for i := range pins {
			if i == lo || i == hi {
				continue
			}
			addEdge(pins[i], pins[lo], weight(pins[i], pins[lo]))
			addEdge(pins[i], pins[hi], weight(pins[i], pins[hi]))
		}
	}

	// Anchor any completely unconnected movable (keeps SPD).
	x := make([]float64, n)
	for i, c := range mov {
		if axis == 0 {
			x[i] = d.X[c]
		} else {
			x[i] = d.Y[c]
		}
	}
	m := b.Build()
	for i := 0; i < n; i++ {
		if m.diag[i] == 0 {
			m.diag[i] = 1
			rhs[i] = x[i]
		}
	}
	if _, _, err := m.SolveCG(x, rhs, opt.CG); err != nil {
		return fmt.Errorf("quadratic: axis %d: %w", axis, err)
	}
	for i, c := range mov {
		if axis == 0 {
			d.X[c] = x[i]
		} else {
			d.Y[c] = x[i]
		}
	}
	return nil
}
