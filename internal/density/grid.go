// Package density implements the ePlace electrostatic density system: a bin
// grid with area stamping, the density overflow metric, and a spectral
// (DCT-based) Poisson solver that turns the charge density into an electric
// potential and field. The field supplies the density-penalty gradient of
// the global placement objective (Eq. 1 of the paper).
package density

import (
	"fmt"

	"repro/internal/geom"
)

// Grid is a uniform bin grid over the placement region accumulating charge
// (area) density. Bins are indexed row-major: bin (ix, iy) lives at
// Density[iy*Nx+ix].
type Grid struct {
	Nx, Ny     int
	Region     geom.Rect
	BinW, BinH float64
	// Density is the movable (+filler) stamped area per bin; cleared and
	// restamped every placement iteration.
	Density []float64
	// FixedDensity is the fixed-cell stamped area per bin; stamped once.
	FixedDensity []float64

	// laneX, laneY are the rectangle stamp's overlap lanes, one slot per
	// bin column and row.
	laneX, laneY []float64
}

// NewGrid creates an nx-by-ny grid over region. Both dimensions must be
// positive powers of two so the spectral solver can run on the grid.
func NewGrid(region geom.Rect, nx, ny int) *Grid {
	if nx <= 0 || ny <= 0 || nx&(nx-1) != 0 || ny&(ny-1) != 0 {
		panic(fmt.Sprintf("density: grid %dx%d must use powers of two", nx, ny))
	}
	if region.Empty() {
		panic("density: empty region")
	}
	return &Grid{
		Nx:           nx,
		Ny:           ny,
		Region:       region,
		BinW:         region.W() / float64(nx),
		BinH:         region.H() / float64(ny),
		Density:      make([]float64, nx*ny),
		FixedDensity: make([]float64, nx*ny),
		laneX:        make([]float64, nx),
		laneY:        make([]float64, ny),
	}
}

// Clear zeroes the movable density map.
func (g *Grid) Clear() {
	for i := range g.Density {
		g.Density[i] = 0
	}
}

// BinArea returns the area of one bin.
func (g *Grid) BinArea() float64 { return g.BinW * g.BinH }

// walk clips the rectangle [xl,xh]x[yl,yh] to the region and writes its
// overlap with each bin column it reaches into ox, and with each bin row
// into oy, in bin order. It returns the first bin reached (row-major index)
// and the numbers of columns and rows written, all 0 when the clipped
// rectangle is empty. An overlap can be zero or negative at a rounded bin
// edge; the readers skip those bins. The bins reached must fit in the
// lanes' capacities, or the reslice panics: a lane never overruns into
// whatever follows it.
func (g *Grid) walk(ox, oy []float64, xl, yl, xh, yh float64) (bin0, nx, ny int) {
	xl = max(xl, g.Region.XL)
	yl = max(yl, g.Region.YL)
	xh = min(xh, g.Region.XH)
	yh = min(yh, g.Region.YH)
	if xh <= xl || yh <= yl {
		return 0, 0, 0
	}
	ix0 := int((xl - g.Region.XL) / g.BinW)
	ix1 := int((xh - g.Region.XL) / g.BinW)
	iy0 := int((yl - g.Region.YL) / g.BinH)
	iy1 := int((yh - g.Region.YL) / g.BinH)
	// The lower bounds are non-negative for any finite clipped rectangle,
	// but a NaN coordinate sails through the clips above (every comparison
	// is false) and int(NaN) is a huge negative number on amd64 — clamp so
	// non-finite inputs degrade to an empty stamp instead of a slice panic.
	// The divergence guard relies on this: it detects NaN positions after
	// the step, which requires the evaluations on them not to crash first.
	if ix0 < 0 {
		ix0 = 0
	}
	if iy0 < 0 {
		iy0 = 0
	}
	if ix1 >= g.Nx {
		ix1 = g.Nx - 1
	}
	if iy1 >= g.Ny {
		iy1 = g.Ny - 1
	}
	if ix1 < ix0 || iy1 < iy0 {
		return 0, 0, 0
	}
	ox = ox[:ix1-ix0+1]
	for k := range ox {
		bx := g.Region.XL + float64(ix0+k)*g.BinW
		ox[k] = min(xh, bx+g.BinW) - max(xl, bx)
	}
	oy = oy[:iy1-iy0+1]
	for k := range oy {
		by := g.Region.YL + float64(iy0+k)*g.BinH
		oy[k] = min(yh, by+g.BinH) - max(yl, by)
	}
	return iy0*g.Nx + ix0, len(ox), len(oy)
}

// deposit adds ox[k]*oy[j]*scale to dst at bin bin0+j*Nx+k for every pair
// of positive overlaps, row by row: the accumulation of every stamp.
func (g *Grid) deposit(dst []float64, bin0 int, ox, oy []float64, scale float64) {
	for j, oy := range oy {
		if oy <= 0 {
			continue
		}
		row := dst[bin0+j*g.Nx:]
		row = row[:len(ox)]
		for k, ox := range ox {
			if ox <= 0 {
				continue
			}
			row[k] += ox * oy * scale
		}
	}
}

// StampFixedRect distributes area*scale of the rectangle [xl,xh]x[yl,yh]
// over the bins of the fixed density map, proportionally to geometric
// overlap. It walks the bins as the per-point stamp does (walk, then
// deposit), through the grid's own lanes, which any rectangle fits.
func (g *Grid) StampFixedRect(xl, yl, xh, yh, scale float64) {
	if scale == 0 {
		return
	}
	bin0, nx, ny := g.walk(g.laneX, g.laneY, xl, yl, xh, yh)
	g.deposit(g.FixedDensity, bin0, g.laneX[:nx], g.laneY[:ny], scale)
}

// Overflow computes the total density overflow
//
//	phi = sum_b max(0, area_b - targetDensity*freeArea_b) / totalMovableArea,
//
// where area_b is the movable density in bin b and freeArea_b is the bin
// area not blocked by fixed cells. totalMovableArea normalizes the metric to
// [0, ~1]; pass the design's movable area (excluding fillers).
func (g *Grid) Overflow(targetDensity, totalMovableArea float64) float64 {
	if totalMovableArea <= 0 {
		return 0
	}
	binArea := g.BinArea()
	sum := 0.0
	for i, a := range g.Density {
		free := binArea - g.FixedDensity[i]
		if free < 0 {
			free = 0
		}
		if ov := a - targetDensity*free; ov > 0 {
			sum += ov
		}
	}
	return sum / totalMovableArea
}
