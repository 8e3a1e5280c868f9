package placer

import (
	"context"
	"fmt"

	"repro/perfbench/refgp/congestion"
	"repro/perfbench/refgp/netlist"
)

// InflateOptions tunes congestion-driven cell inflation (the RePlAce-style
// routability loop: cells in congested bins get virtual area so the density
// system spreads them apart, trading wirelength for routability).
type InflateOptions struct {
	// GridX, GridY size the RUDY congestion map (default 64x64).
	GridX, GridY int
	// Threshold marks a bin congested when its demand exceeds
	// Threshold * average demand (default 2.0).
	Threshold float64
	// MaxRatio caps the per-cell inflation factor (default 2.0).
	MaxRatio float64
}

// InflationResult reports what a congestion-driven inflation pass did.
type InflationResult struct {
	// Inflated counts cells that received virtual area.
	Inflated int
	// AreaRatio is total inflated area / original movable area.
	AreaRatio float64
	// PeakBefore is the congestion peak that drove the inflation.
	PeakBefore float64
}

// InflateCongested grows the width of movable standard cells located in
// congested bins of the current placement, proportionally to the bin's
// demand ratio (capped at MaxRatio). The caller re-runs global placement
// with KeepPositions=true afterwards; RestoreSizes undoes the inflation
// before legalization. Returns the per-cell original widths needed by
// RestoreSizes.
func InflateCongested(d *netlist.Design, opt InflateOptions) ([]float64, *InflationResult, error) {
	if opt.GridX <= 0 {
		opt.GridX = 64
	}
	if opt.GridY <= 0 {
		opt.GridY = 64
	}
	if opt.Threshold <= 0 {
		opt.Threshold = 2.0
	}
	if opt.MaxRatio <= 1 {
		opt.MaxRatio = 2.0
	}
	cmap, err := congestion.RUDY(d, opt.GridX, opt.GridY)
	if err != nil {
		return nil, nil, fmt.Errorf("placer: inflation: %w", err)
	}
	stats := cmap.ComputeStats()
	if stats.Avg <= 0 {
		return nil, &InflationResult{}, nil
	}
	origW := make([]float64, d.NumCells())
	for i := range d.Cells {
		origW[i] = d.Cells[i].W
	}
	res := &InflationResult{PeakBefore: stats.Peak}
	var origArea, newArea float64
	for _, c := range d.MovableIndices() {
		cell := &d.Cells[c]
		origArea += cell.Area()
		if cell.Kind == netlist.MovableMacro {
			newArea += cell.Area()
			continue
		}
		ix := int((d.CenterX(c) - cmap.Region.XL) / cmap.BinW)
		iy := int((d.CenterY(c) - cmap.Region.YL) / cmap.BinH)
		if ix < 0 || ix >= cmap.Nx || iy < 0 || iy >= cmap.Ny {
			newArea += cell.Area()
			continue
		}
		ratio := cmap.Demand[iy*cmap.Nx+ix] / (opt.Threshold * stats.Avg)
		if ratio > 1 {
			if ratio > opt.MaxRatio {
				ratio = opt.MaxRatio
			}
			cell.W *= ratio
			res.Inflated++
		}
		newArea += cell.Area()
	}
	if origArea > 0 {
		res.AreaRatio = newArea / origArea
	}
	return origW, res, nil
}

// RestoreSizes undoes InflateCongested using the widths it returned.
func RestoreSizes(d *netlist.Design, origW []float64) {
	for i := range d.Cells {
		if i < len(origW) {
			d.Cells[i].W = origW[i]
		}
	}
}

// PlaceRoutability runs the routability-driven loop: a normal global
// placement, then up to `rounds` of congestion-driven inflation followed by
// incremental re-placement from the previous solution, and finally restores
// true cell sizes. The returned result is the last placement's.
func PlaceRoutability(d *netlist.Design, cfg Config, rounds int, inflate InflateOptions) (*Result, *InflationResult, error) {
	return PlaceRoutabilityContext(context.Background(), d, cfg, rounds, inflate)
}

// PlaceRoutabilityContext is PlaceRoutability with per-iteration context
// cancellation (see PlaceContext).
func PlaceRoutabilityContext(ctx context.Context, d *netlist.Design, cfg Config, rounds int, inflate InflateOptions) (*Result, *InflationResult, error) {
	if rounds <= 0 {
		rounds = 1
	}
	res, err := PlaceContext(ctx, d, cfg)
	if err != nil {
		return nil, nil, err
	}
	var lastInfo *InflationResult
	for r := 0; r < rounds; r++ {
		origW, info, err := InflateCongested(d, inflate)
		if err != nil {
			return nil, nil, err
		}
		lastInfo = info
		if info.Inflated == 0 {
			break
		}
		incr := cfg
		incr.KeepPositions = true
		incr.Init = "keep"
		// Incremental rounds need fewer iterations: start from the
		// previous solution.
		if incr.MaxIters == 0 || incr.MaxIters > 300 {
			incr.MaxIters = 300
		}
		res, err = PlaceContext(ctx, d, incr)
		RestoreSizes(d, origW)
		if err != nil {
			return nil, nil, err
		}
	}
	d.ClampToRegion()
	return res, lastInfo, nil
}
