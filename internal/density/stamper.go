package density

import "repro/internal/parallel"

// Stamper scatters many smoothed cell footprints into a grid's movable
// density map with a fixed worker pool. Each worker owns a band of grid
// rows and adds every cell's footprint, clipped to its rows, in cell order,
// so every bin receives the same additions in the same order as a serial
// Grid.StampSmoothed loop: the map is bit-identical at every worker count.
//
// A Stamper is bound to one grid and is not safe for concurrent use.
type Stamper struct {
	g       *Grid
	workers int

	// Prebuilt band body and its per-call parameters: a closure built
	// inside StampSmoothed would escape to the heap on every call.
	n      int
	cell   func(i int) (cx, cy, w, h float64)
	fnBand func(w, lo, hi int)
}

// NewStamper builds a stamper over g with the given pool size; workers <= 1
// stamps on the caller's goroutine.
func NewStamper(g *Grid, workers int) *Stamper {
	s := &Stamper{g: g, workers: max(workers, 1)}
	s.fnBand = func(_, lo, hi int) {
		for i := 0; i < s.n; i++ {
			xl, yl, xh, yh, scale := g.SmoothedFootprint(s.cell(i))
			g.stampInto(g.Density, xl, yl, xh, yh, scale, lo, hi)
		}
	}
	return s
}

// StampSmoothed stamps n cells into the grid's movable density map, adding
// on top of whatever is already there. cell reports cell i's center and full
// dimensions; it is called concurrently from the pool and must be pure.
func (s *Stamper) StampSmoothed(n int, cell func(i int) (cx, cy, w, h float64)) {
	if n <= 0 {
		return
	}
	s.n, s.cell = n, cell
	parallel.For(s.workers, s.g.Ny, s.fnBand)
}
