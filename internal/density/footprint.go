package density

import "math"

// Footprints stamps the ePlace smoothed footprints of a fixed set of entries
// (cells and fillers) and gathers the field over them. A dimension smaller
// than sqrt(2) bins is inflated to sqrt(2) bins, with a compensating density
// scale so the stamped area stays w*h (up to clipping at the region edge).
//
// Each entry's footprint size is fixed, so its smoothed half-extents and
// scale are computed once, at construction. Each Stamp records, per entry,
// the footprint's first bin and its overlap with every bin column and row
// it reaches, each column's overlap computed once; Gather reads those
// records back and integrates the field over the same bins, in the same
// order, with the same skips and the same weight ox*oy*scale, so the force
// on an entry is the exact adjoint of its stamp and takes no geometry of its
// own.
//
// The overlap lanes are sized at construction from each entry's footprint
// size, so no Stamp grows them. A Footprints reuses its records and is not
// safe for concurrent use.
type Footprints struct {
	g *Grid
	// hw, hh are the smoothed half-extents and scale the density weight of
	// each entry.
	hw, hh, scale []float64
	// Entry i's column overlaps live in ox[xoff[i]:xoff[i+1]] and its row
	// overlaps in oy[yoff[i]:yoff[i+1]].
	xoff, yoff []int
	ox, oy     []float64
	// at is where each entry's footprint lay at the last Stamp.
	at []footprintAt
}

// footprintAt places one footprint on the grid: its first bin (row-major
// index) and the number of bin columns and rows its lanes hold, 0 when it
// reaches no bin.
type footprintAt struct {
	bin0   int
	nx, ny int32
}

// NewFootprints builds the footprints of entries whose half-dimensions are
// halfW[i], halfH[i] (a w-by-h entry has half-dimensions w/2, h/2) on grid g.
func NewFootprints(g *Grid, halfW, halfH []float64) *Footprints {
	n := len(halfW)
	f := &Footprints{
		g:     g,
		hw:    make([]float64, n),
		hh:    make([]float64, n),
		scale: make([]float64, n),
		xoff:  make([]int, n+1),
		yoff:  make([]int, n+1),
		at:    make([]footprintAt, n),
	}
	const sq2 = math.Sqrt2
	minW, minH := sq2*g.BinW, sq2*g.BinH
	for i := range halfW {
		ew, eh := 2*halfW[i], 2*halfH[i]
		scale := 1.0
		if ew < minW {
			if ew > 0 {
				scale *= ew / minW
			}
			ew = minW
		}
		if eh < minH {
			if eh > 0 {
				scale *= eh / minH
			}
			eh = minH
		}
		f.hw[i], f.hh[i], f.scale[i] = ew/2, eh/2, scale
		f.xoff[i+1] = f.xoff[i] + laneCap(ew, g.BinW, g.Nx)
		f.yoff[i+1] = f.yoff[i] + laneCap(eh, g.BinH, g.Ny)
	}
	f.ox = make([]float64, f.xoff[n])
	f.oy = make([]float64, f.yoff[n])
	return f
}

// laneCap is the number of bins, of width bin, that a footprint of width e
// can reach along an axis of n bins: floor(e/bin)+3, capped at n. An
// interval of width e meets at most floor(e/bin)+2 bins, and one more when
// e sits within rounding of a whole number of bins and its end rounds up
// onto the next bin boundary; the walk still reaches that bin, though its
// overlap is not positive.
func laneCap(e, bin float64, n int) int {
	c := e / bin
	if !(c < float64(n)) { // also a NaN or infinite width
		return n
	}
	return min(int(c)+3, n)
}

// Stamp places entries lo..hi-1 at the centres (x[i], y[i]), records where
// each footprint lies, and adds each entry's charge to the grid's movable
// density. An entry with a zero scale is recorded but adds nothing; one
// outside the region or with a NaN coordinate reaches no bin.
func (f *Footprints) Stamp(x, y []float64, lo, hi int) {
	g := f.g
	for i := lo; i < hi; i++ {
		ox := f.ox[f.xoff[i]:f.xoff[i+1]:f.xoff[i+1]]
		oy := f.oy[f.yoff[i]:f.yoff[i+1]:f.yoff[i+1]]
		bin0, nx, ny := g.walk(ox, oy, x[i]-f.hw[i], y[i]-f.hh[i], x[i]+f.hw[i], y[i]+f.hh[i])
		f.at[i] = footprintAt{bin0: bin0, nx: int32(nx), ny: int32(ny)}
		if s := f.scale[i]; s != 0 {
			g.deposit(g.Density, bin0, ox[:nx], oy[:ny], s)
		}
	}
}

// Gather integrates the field (ex, ey) over every entry's footprint where
// the last Stamp placed it and writes the force on entry i to fx[i], fy[i]:
// sum of ox*oy*scale times the field over the bins the stamp reached, in the
// stamp's bin order. An entry that reached no bin gets a zero force.
func (f *Footprints) Gather(ex, ey, fx, fy []float64) {
	nxGrid := f.g.Nx
	for i, at := range f.at {
		ox := f.ox[f.xoff[i]:][:at.nx]
		oy := f.oy[f.yoff[i]:][:at.ny]
		scale := f.scale[i]
		var sx, sy float64
		for j, oy := range oy {
			if oy <= 0 {
				continue
			}
			b := at.bin0 + j*nxGrid
			rx := ex[b:][:len(ox)]
			ry := ey[b:][:len(ox)]
			for k, ox := range ox {
				if ox <= 0 {
					continue
				}
				q := ox * oy * scale
				sx += q * rx[k]
				sy += q * ry[k]
			}
		}
		fx[i], fy[i] = sx, sy
	}
}
