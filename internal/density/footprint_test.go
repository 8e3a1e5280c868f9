package density

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// refFootprint is the smoothed footprint of a w-by-h entry centred at
// (cx, cy), computed from scratch at every call.
func refFootprint(g *Grid, cx, cy, w, h float64) (xl, yl, xh, yh, scale float64) {
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

// refBins clips [xl,xh]x[yl,yh] and returns its bin range, the walk the
// stamp and the gather once each repeated.
func refBins(g *Grid, xl, yl, xh, yh float64) (ok bool, cxl, cyl, cxh, cyh float64, ix0, iy0, ix1, iy1 int) {
	xl = max(xl, g.Region.XL)
	yl = max(yl, g.Region.YL)
	xh = min(xh, g.Region.XH)
	yh = min(yh, g.Region.YH)
	if xh <= xl || yh <= yl {
		return false, 0, 0, 0, 0, 0, 0, 0, 0
	}
	ix0 = max(int((xl-g.Region.XL)/g.BinW), 0)
	ix1 = min(int((xh-g.Region.XL)/g.BinW), g.Nx-1)
	iy0 = max(int((yl-g.Region.YL)/g.BinH), 0)
	iy1 = min(int((yh-g.Region.YL)/g.BinH), g.Ny-1)
	return true, xl, yl, xh, yh, ix0, iy0, ix1, iy1
}

// refStamp adds the rectangle's overlap area times scale to dst, computing
// every bin's overlap in the loop that uses it.
func refStamp(g *Grid, dst []float64, xl, yl, xh, yh, scale float64) {
	if xh <= xl || yh <= yl || scale == 0 {
		return
	}
	ok, xl, yl, xh, yh, ix0, iy0, ix1, iy1 := refBins(g, xl, yl, xh, yh)
	if !ok {
		return
	}
	for iy := iy0; iy <= iy1; iy++ {
		by := g.Region.YL + float64(iy)*g.BinH
		oy := min(yh, by+g.BinH) - max(yl, by)
		if oy <= 0 {
			continue
		}
		for ix := ix0; ix <= ix1; ix++ {
			bx := g.Region.XL + float64(ix)*g.BinW
			ox := min(xh, bx+g.BinW) - max(xl, bx)
			if ox <= 0 {
				continue
			}
			dst[iy*g.Nx+ix] += ox * oy * scale
		}
	}
}

// refSample integrates the field over the smoothed footprint of a w-by-h
// entry at (cx, cy), recomputing the footprint and every overlap.
func refSample(g *Grid, ex, ey []float64, cx, cy, w, h float64) (fx, fy float64) {
	xl, yl, xh, yh, scale := refFootprint(g, cx, cy, w, h)
	ok, xl, yl, xh, yh, ix0, iy0, ix1, iy1 := refBins(g, xl, yl, xh, yh)
	if !ok {
		return 0, 0
	}
	for iy := iy0; iy <= iy1; iy++ {
		by := g.Region.YL + float64(iy)*g.BinH
		oy := min(yh, by+g.BinH) - max(yl, by)
		if oy <= 0 {
			continue
		}
		for ix := ix0; ix <= ix1; ix++ {
			bx := g.Region.XL + float64(ix)*g.BinW
			ox := min(xh, bx+g.BinW) - max(xl, bx)
			if ox <= 0 {
				continue
			}
			q := ox * oy * scale
			fx += q * ex[iy*g.Nx+ix]
			fy += q * ey[iy*g.Nx+ix]
		}
	}
	return fx, fy
}

// checkAgainstRef stamps and gathers the entries (half-dimensions hw, hh at
// centres cx, cy) through Footprints, twice (first at shifted centres, so
// the second stamp must overwrite every record), and requires the density
// map and every force to match the from-scratch reference bit for bit. It
// returns the footprints.
func checkAgainstRef(t *testing.T, g *Grid, cx, cy, hw, hh []float64) *Footprints {
	t.Helper()
	n := len(cx)
	rng := rand.New(rand.NewSource(8))
	ex := make([]float64, g.Nx*g.Ny)
	ey := make([]float64, g.Nx*g.Ny)
	for i := range ex {
		ex[i], ey[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	f := NewFootprints(g, hw, hh)
	fx, fy := make([]float64, n), make([]float64, n)
	shifted := make([]float64, n)
	for i := range cx {
		shifted[i] = cx[i] + 3.5*g.BinW
	}
	g.Clear()
	f.Stamp(shifted, cy, 0, n)
	g.Clear()
	half := n / 2 // the engine stamps in two ranges: cells, then fillers
	f.Stamp(cx, cy, 0, half)
	f.Stamp(cx, cy, half, n)
	f.Gather(ex, ey, fx, fy)

	want := make([]float64, len(g.Density))
	for i := range cx {
		xl, yl, xh, yh, scale := refFootprint(g, cx[i], cy[i], 2*hw[i], 2*hh[i])
		refStamp(g, want, xl, yl, xh, yh, scale)
		wx, wy := refSample(g, ex, ey, cx[i], cy[i], 2*hw[i], 2*hh[i])
		if math.Float64bits(fx[i]) != math.Float64bits(wx) || math.Float64bits(fy[i]) != math.Float64bits(wy) {
			t.Fatalf("entry %d (%v, %v, half %v x %v): force (%v, %v), reference (%v, %v)",
				i, cx[i], cy[i], hw[i], hh[i], fx[i], fy[i], wx, wy)
		}
	}
	for b := range want {
		if math.Float64bits(g.Density[b]) != math.Float64bits(want[b]) {
			t.Fatalf("density[%d] = %v, reference %v", b, g.Density[b], want[b])
		}
	}
	return f
}

// TestFootprintsMatchReference pins Stamp and Gather to the from-scratch
// walk bit for bit on cells and macros spread over and past the region, on
// entries with NaN and infinite coordinates (which reach no bin), and on
// the fixed-rectangle stamp.
func TestFootprintsMatchReference(t *testing.T) {
	region := geom.Rect{XL: 0.3, YL: -1.7, XH: 97.6, YH: 60.2}
	g := NewGrid(region, 64, 32)
	cx, cy, w, h := testCells(3000, region, 5)
	for i := range w {
		w[i] /= 2
		h[i] /= 2
	}
	cx[7], cy[8] = math.NaN(), math.NaN()
	cx[9], cy[10] = math.Inf(1), math.Inf(-1)
	cx[11] = region.XH + 50 // wholly off the region
	checkAgainstRef(t, g, cx, cy, w, h)

	rng := rand.New(rand.NewSource(6))
	want := make([]float64, len(g.FixedDensity))
	clear(g.FixedDensity)
	for k := 0; k < 500; k++ {
		xl := region.XL - 5 + rng.Float64()*(region.W()+10)
		yl := region.YL - 5 + rng.Float64()*(region.H()+10)
		xh, yh := xl+rng.Float64()*30, yl+rng.Float64()*20
		g.StampFixedRect(xl, yl, xh, yh, 1)
		refStamp(g, want, xl, yl, xh, yh, 1)
	}
	for b := range want {
		if math.Float64bits(g.FixedDensity[b]) != math.Float64bits(want[b]) {
			t.Fatalf("fixed density[%d] = %v, reference %v", b, g.FixedDensity[b], want[b])
		}
	}
}

// TestFootprintsZeroScaleGathers checks the one asymmetry between the stamp
// and the gather: an entry whose smoothed scale underflows to zero stamps
// nothing, but the gather still visits its bins, so a NaN in the field
// reaches its force as it reaches every other entry's.
func TestFootprintsZeroScaleGathers(t *testing.T) {
	g := NewGrid(geom.Rect{XL: 0, YL: 0, XH: 6400, YH: 6400}, 16, 16)
	f := NewFootprints(g, []float64{5e-324}, []float64{5e-324})
	if f.scale[0] != 0 {
		t.Fatalf("scale = %v, want an underflow to 0", f.scale[0])
	}
	g.Clear()
	f.Stamp([]float64{1000}, []float64{1000}, 0, 1)
	for b, v := range g.Density {
		if v != 0 {
			t.Fatalf("a zero-scale entry stamped %v into bin %d", v, b)
		}
	}
	ex := make([]float64, 16*16)
	ey := make([]float64, 16*16)
	ex[2*16+2] = math.NaN()
	fx, fy := make([]float64, 1), make([]float64, 1)
	f.Gather(ex, ey, fx, fy)
	wx, wy := refSample(g, ex, ey, 1000, 1000, 1e-323, 1e-323)
	if !math.IsNaN(fx[0]) || !math.IsNaN(wx) || fy[0] != wy {
		t.Errorf("force (%v, %v), reference (%v, %v), want a NaN x from the field", fx[0], fy[0], wx, wy)
	}
}

// TestFootprintLanesHoldRoundingEdge drives footprints whose widths sit at,
// or one or two ULPs below, a whole number of bins, with edges a few ULPs
// either side of bin boundaries, plus random sub-bin offsets. Every lane
// must hold its footprint (an overrun panics), the results must match the
// reference walk, and some footprints must reach floor(e/bin)+3 bins, the
// lane bound, which floor(e/bin)+2 would miss.
func TestFootprintLanesHoldRoundingEdge(t *testing.T) {
	region := geom.Rect{XL: 0.3, YL: -1.7, XH: 97.6, YH: 60.2}
	g := NewGrid(region, 64, 32)
	rng := rand.New(rand.NewSource(12))
	var cx, cy, hw, hh []float64
	for k := 2; k <= 6; k++ {
		for _, ulps := range []int{0, 1, 2} {
			ew, eh := float64(k)*g.BinW, float64(k)*g.BinH
			for u := 0; u < ulps; u++ {
				ew = math.Nextafter(ew, 0)
				eh = math.Nextafter(eh, 0)
			}
			for b := 0; b+k < g.Ny; b++ {
				for d := -3; d <= 3; d++ {
					xl := region.XL + float64(b)*g.BinW
					yl := region.YL + float64(b)*g.BinH
					for s := 0; s < d; s++ {
						xl, yl = math.Nextafter(xl, math.Inf(1)), math.Nextafter(yl, math.Inf(1))
					}
					for s := 0; s > d; s-- {
						xl, yl = math.Nextafter(xl, math.Inf(-1)), math.Nextafter(yl, math.Inf(-1))
					}
					cx = append(cx, xl+ew/2)
					cy = append(cy, yl+eh/2)
					hw = append(hw, ew/2)
					hh = append(hh, eh/2)
				}
				// Random sub-bin offsets at the same size.
				cx = append(cx, region.XL+(float64(b)+rng.Float64())*g.BinW+ew/2)
				cy = append(cy, region.YL+(float64(b)+rng.Float64())*g.BinH+eh/2)
				hw = append(hw, ew/2)
				hh = append(hh, eh/2)
			}
		}
	}
	f := checkAgainstRef(t, g, cx, cy, hw, hh)

	full := 0
	for i, at := range f.at {
		capX, capY := f.xoff[i+1]-f.xoff[i], f.yoff[i+1]-f.yoff[i]
		if int(at.nx) > capX || int(at.ny) > capY {
			t.Fatalf("entry %d reached %dx%d bins, lanes hold %dx%d", i, at.nx, at.ny, capX, capY)
		}
		bx := int(2*f.hw[i]/g.BinW) + 3
		by := int(2*f.hh[i]/g.BinH) + 3
		if capX != bx || capY != by {
			t.Fatalf("entry %d lanes hold %dx%d bins, want floor(e/bin)+3 = %dx%d", i, capX, capY, bx, by)
		}
		if int(at.nx) == bx || int(at.ny) == by {
			full++
		}
	}
	if full == 0 {
		t.Errorf("no footprint reached floor(e/bin)+3 bins; the rounding edge went untested")
	}
	t.Logf("%d of %d footprints reached floor(e/bin)+3 bins on an axis", full, len(cx))
}
