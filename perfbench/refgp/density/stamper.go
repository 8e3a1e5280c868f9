package density

import "repro/perfbench/refgp/parallel"

// Stamper scatters many smoothed cell footprints into a grid's movable
// density map with a fixed worker pool. Each worker stamps its contiguous
// cell range into a private density accumulator; the partials are then
// reduced into g.Density worker-by-worker in index order (the same
// determinism contract as the parallel wirelength evaluator), so the map is
// bit-identical across runs for a fixed worker count and differs from the
// serial map only by floating-point addition order.
//
// A Stamper is bound to one grid and is not safe for concurrent use.
type Stamper struct {
	g       *Grid
	workers int
	parts   [][]float64 // per-worker density partials (workers > 1 only)
}

// NewStamper builds a stamper over g with the given pool size; workers <= 1
// stamps serially through Grid.StampSmoothed with no extra memory.
func NewStamper(g *Grid, workers int) *Stamper {
	if workers < 1 {
		workers = 1
	}
	s := &Stamper{g: g, workers: workers}
	if workers > 1 {
		s.parts = make([][]float64, workers)
		for w := range s.parts {
			s.parts[w] = make([]float64, g.Nx*g.Ny)
		}
	}
	return s
}

// Workers returns the stamper's worker-pool size.
func (s *Stamper) Workers() int { return s.workers }

// StampSmoothed stamps n cells into the grid's movable density map, adding
// on top of whatever is already there. cell reports cell i's center and full
// dimensions; it is called concurrently from the pool and must be pure.
func (s *Stamper) StampSmoothed(n int, cell func(i int) (cx, cy, w, h float64)) {
	if n <= 0 {
		return
	}
	if s.workers <= 1 {
		for i := 0; i < n; i++ {
			cx, cy, w, h := cell(i)
			s.g.StampSmoothed(cx, cy, w, h)
		}
		return
	}
	active := parallel.Active(s.workers, n)
	parallel.For(s.workers, n, func(w, lo, hi int) {
		part := s.parts[w]
		for i := range part {
			part[i] = 0
		}
		for i := lo; i < hi; i++ {
			cx, cy, cw, ch := cell(i)
			xl, yl, xh, yh, scale := s.g.SmoothedFootprint(cx, cy, cw, ch)
			s.g.stampInto(part, xl, yl, xh, yh, scale)
		}
	})
	// Reduce: bins are partitioned across workers, each summing every
	// active partial for its bin range in worker order (deterministic).
	parallel.For(s.workers, s.g.Nx*s.g.Ny, func(_, lo, hi int) {
		dst := s.g.Density[lo:hi]
		for w := 0; w < active; w++ {
			part := s.parts[w][lo:hi]
			for i, v := range part {
				dst[i] += v
			}
		}
	})
}

// OverflowWorkers computes Overflow with a worker pool; per-worker partial
// sums are reduced in worker index order, so the result is deterministic for
// a fixed worker count. workers <= 1 is exactly Overflow.
func (g *Grid) OverflowWorkers(targetDensity, totalMovableArea float64, workers int) float64 {
	if workers <= 1 {
		return g.Overflow(targetDensity, totalMovableArea)
	}
	if totalMovableArea <= 0 {
		return 0
	}
	binArea := g.BinArea()
	sum := parallel.SumOrdered(workers, len(g.Density), func(_, lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			free := binArea - g.FixedDensity[i]
			if free < 0 {
				free = 0
			}
			if ov := g.Density[i] - targetDensity*free; ov > 0 {
				s += ov
			}
		}
		return s
	})
	return sum / totalMovableArea
}
