// Package density implements the ePlace electrostatic density system: a bin
// grid with area stamping, the density overflow metric, and a spectral
// (DCT-based) Poisson solver that turns the charge density into an electric
// potential and field. The field supplies the density-penalty gradient of
// the global placement objective (Eq. 1 of the paper).
package density

import (
	"fmt"
	"math"

	"repro/perfbench/refgp/geom"
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
	}
}

// Clear zeroes the movable density map.
func (g *Grid) Clear() {
	for i := range g.Density {
		g.Density[i] = 0
	}
}

// ClearFixed zeroes the fixed density map.
func (g *Grid) ClearFixed() {
	for i := range g.FixedDensity {
		g.FixedDensity[i] = 0
	}
}

// BinIndex returns the bin column/row containing x, y, clamped to the grid.
func (g *Grid) BinIndex(x, y float64) (ix, iy int) {
	ix = int((x - g.Region.XL) / g.BinW)
	iy = int((y - g.Region.YL) / g.BinH)
	if ix < 0 {
		ix = 0
	}
	if ix >= g.Nx {
		ix = g.Nx - 1
	}
	if iy < 0 {
		iy = 0
	}
	if iy >= g.Ny {
		iy = g.Ny - 1
	}
	return
}

// BinArea returns the area of one bin.
func (g *Grid) BinArea() float64 { return g.BinW * g.BinH }

// stampInto distributes area*scale of the rectangle [xl,xh]x[yl,yh] over the
// bins of dst proportionally to geometric overlap.
func (g *Grid) stampInto(dst []float64, xl, yl, xh, yh, scale float64) {
	if xh <= xl || yh <= yl || scale == 0 {
		return
	}
	// Clip to region.
	xl = max(xl, g.Region.XL)
	yl = max(yl, g.Region.YL)
	xh = min(xh, g.Region.XH)
	yh = min(yh, g.Region.YH)
	if xh <= xl || yh <= yl {
		return
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
	for iy := iy0; iy <= iy1; iy++ {
		by := g.Region.YL + float64(iy)*g.BinH
		oy := min(yh, by+g.BinH) - max(yl, by)
		if oy <= 0 {
			continue
		}
		row := iy * g.Nx
		for ix := ix0; ix <= ix1; ix++ {
			bx := g.Region.XL + float64(ix)*g.BinW
			ox := min(xh, bx+g.BinW) - max(xl, bx)
			if ox <= 0 {
				continue
			}
			dst[row+ix] += ox * oy * scale
		}
	}
}

// StampRect adds the rectangle's overlap area (times scale) to the movable
// density map.
func (g *Grid) StampRect(xl, yl, xh, yh, scale float64) {
	g.stampInto(g.Density, xl, yl, xh, yh, scale)
}

// StampFixedRect adds the rectangle's overlap area (times scale) to the
// fixed density map.
func (g *Grid) StampFixedRect(xl, yl, xh, yh, scale float64) {
	g.stampInto(g.FixedDensity, xl, yl, xh, yh, scale)
}

// SmoothedFootprint returns the ePlace density footprint of a w-by-h cell
// centered at (cx, cy): dimensions smaller than sqrt(2) bins are inflated to
// sqrt(2) bins with a compensating density scale so the stamped area stays
// w*h.
func (g *Grid) SmoothedFootprint(cx, cy, w, h float64) (xl, yl, xh, yh, scale float64) {
	const sq2 = math.Sqrt2
	ew, eh := w, h
	scale = 1.0
	if minW := sq2 * g.BinW; ew < minW {
		if ew > 0 {
			scale *= ew / minW
		}
		ew = minW
	}
	if minH := sq2 * g.BinH; eh < minH {
		if eh > 0 {
			scale *= eh / minH
		}
		eh = minH
	}
	return cx - ew/2, cy - eh/2, cx + ew/2, cy + eh/2, scale
}

// StampSmoothed stamps a movable cell with the ePlace local smoothing; the
// total stamped area equals w*h (up to clipping at the region boundary).
func (g *Grid) StampSmoothed(cx, cy, w, h float64) {
	xl, yl, xh, yh, scale := g.SmoothedFootprint(cx, cy, w, h)
	g.StampRect(xl, yl, xh, yh, scale)
}

// TotalDensity returns movable + fixed stamped area in bin i.
func (g *Grid) TotalDensity(i int) float64 { return g.Density[i] + g.FixedDensity[i] }

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

// SampleSmoothed integrates the per-bin field over the same smoothed
// footprint used for stamping and returns the accumulated (fx, fy); this is
// the electric force on the cell, the exact adjoint of StampSmoothed.
func (g *Grid) SampleSmoothed(ex, ey []float64, cx, cy, w, h float64) (fx, fy float64) {
	xl, yl, xh, yh, scale := g.SmoothedFootprint(cx, cy, w, h)
	xl = max(xl, g.Region.XL)
	yl = max(yl, g.Region.YL)
	xh = min(xh, g.Region.XH)
	yh = min(yh, g.Region.YH)
	if xh <= xl || yh <= yl {
		return 0, 0
	}
	ix0 := int((xl - g.Region.XL) / g.BinW)
	ix1 := int((xh - g.Region.XL) / g.BinW)
	iy0 := int((yl - g.Region.YL) / g.BinH)
	iy1 := int((yh - g.Region.YL) / g.BinH)
	// Same non-finite clamp as stampInto: int(NaN) is hugely negative, and
	// the force sample must survive NaN positions for the guard to see them.
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
	for iy := iy0; iy <= iy1; iy++ {
		by := g.Region.YL + float64(iy)*g.BinH
		oy := min(yh, by+g.BinH) - max(yl, by)
		if oy <= 0 {
			continue
		}
		row := iy * g.Nx
		for ix := ix0; ix <= ix1; ix++ {
			bx := g.Region.XL + float64(ix)*g.BinW
			ox := min(xh, bx+g.BinW) - max(xl, bx)
			if ox <= 0 {
				continue
			}
			q := ox * oy * scale
			fx += q * ex[row+ix]
			fy += q * ey[row+ix]
		}
	}
	return fx, fy
}

// SumDensity returns the total stamped movable area.
func (g *Grid) SumDensity() float64 {
	s := 0.0
	for _, v := range g.Density {
		s += v
	}
	return s
}
