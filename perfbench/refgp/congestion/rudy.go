// Package congestion estimates routing congestion with the RUDY model
// (Rectangular Uniform wire DensitY, Spindler & Johannes): each net spreads
// a wire demand of (w + h) / (w * h) uniformly over its bounding box, and
// the per-bin accumulation approximates routing demand. The ISPD2019 suite
// the paper evaluates on is routability-driven, so the flow reports RUDY
// statistics alongside HPWL.
package congestion

import (
	"fmt"
	"math"
	"sort"

	"repro/perfbench/refgp/geom"
	"repro/perfbench/refgp/netlist"
)

// Map is a congestion grid over the placement region.
type Map struct {
	Nx, Ny     int
	Region     geom.Rect
	BinW, BinH float64
	// Demand is the RUDY wire demand per bin (dimensionless wire density),
	// indexed Demand[iy*Nx+ix].
	Demand []float64
}

// RUDY computes the congestion map of the design's current placement on an
// nx-by-ny grid.
func RUDY(d *netlist.Design, nx, ny int) (*Map, error) {
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("congestion: grid %dx%d invalid", nx, ny)
	}
	if d.Region.Empty() {
		return nil, fmt.Errorf("congestion: empty region")
	}
	m := &Map{
		Nx: nx, Ny: ny,
		Region: d.Region,
		BinW:   d.Region.W() / float64(nx),
		BinH:   d.Region.H() / float64(ny),
		Demand: make([]float64, nx*ny),
	}
	for e := range d.Nets {
		pins := d.NetPins(e)
		if len(pins) < 2 {
			continue
		}
		p0 := d.PinPos(pins[0])
		xl, xh, yl, yh := p0.X, p0.X, p0.Y, p0.Y
		for _, p := range pins[1:] {
			pt := d.PinPos(p)
			xl = math.Min(xl, pt.X)
			xh = math.Max(xh, pt.X)
			yl = math.Min(yl, pt.Y)
			yh = math.Max(yh, pt.Y)
		}
		// Degenerate boxes still demand wire along the non-degenerate
		// axis; floor each extent at one bin.
		w := math.Max(xh-xl, m.BinW)
		h := math.Max(yh-yl, m.BinH)
		density := d.Nets[e].Weight * (w + h) / (w * h)
		m.stamp(xl, yl, xl+w, yl+h, density)
	}
	return m, nil
}

// stamp adds density to every bin overlapping the box, weighted by overlap
// fraction of the bin.
func (m *Map) stamp(xl, yl, xh, yh, density float64) {
	xl = math.Max(xl, m.Region.XL)
	yl = math.Max(yl, m.Region.YL)
	xh = math.Min(xh, m.Region.XH)
	yh = math.Min(yh, m.Region.YH)
	if xh <= xl || yh <= yl {
		return
	}
	ix0 := int((xl - m.Region.XL) / m.BinW)
	ix1 := int((xh - m.Region.XL) / m.BinW)
	iy0 := int((yl - m.Region.YL) / m.BinH)
	iy1 := int((yh - m.Region.YL) / m.BinH)
	if ix1 >= m.Nx {
		ix1 = m.Nx - 1
	}
	if iy1 >= m.Ny {
		iy1 = m.Ny - 1
	}
	binArea := m.BinW * m.BinH
	for iy := iy0; iy <= iy1; iy++ {
		by := m.Region.YL + float64(iy)*m.BinH
		oy := math.Min(yh, by+m.BinH) - math.Max(yl, by)
		if oy <= 0 {
			continue
		}
		row := iy * m.Nx
		for ix := ix0; ix <= ix1; ix++ {
			bx := m.Region.XL + float64(ix)*m.BinW
			ox := math.Min(xh, bx+m.BinW) - math.Max(xl, bx)
			if ox <= 0 {
				continue
			}
			m.Demand[row+ix] += density * (ox * oy) / binArea
		}
	}
}

// Stats summarizes a congestion map.
type Stats struct {
	Peak, Avg float64
	// P99 and P95 are demand percentiles, more robust than the peak.
	P99, P95 float64
	// HotspotFrac is the fraction of bins above 2x the average demand.
	HotspotFrac float64
}

// ComputeStats derives the summary statistics of the map.
func (m *Map) ComputeStats() Stats {
	var s Stats
	n := len(m.Demand)
	if n == 0 {
		return s
	}
	sorted := append([]float64(nil), m.Demand...)
	sort.Float64s(sorted)
	total := 0.0
	for _, v := range sorted {
		total += v
	}
	s.Avg = total / float64(n)
	s.Peak = sorted[n-1]
	s.P99 = sorted[min(n-1, n*99/100)]
	s.P95 = sorted[min(n-1, n*95/100)]
	hot := 0
	for _, v := range m.Demand {
		if v > 2*s.Avg {
			hot++
		}
	}
	s.HotspotFrac = float64(hot) / float64(n)
	return s
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
