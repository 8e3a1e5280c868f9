// Package synth generates deterministic synthetic placement benchmarks with
// contest-like structure: Rent's-rule locality (nets connect cells that are
// close in a hierarchical ordering), realistic net-degree distributions,
// peripheral I/O pads, fixed blockages, and movable macros.
//
// The ISPD2006 and ISPD2019 contest suites used in the paper's Tables I-III
// are mirrored at reduced scale by SpecFromContest: the generator reproduces
// each design's movable/fixed/net/pin ratios while shrinking absolute counts
// so a pure-Go flow finishes in CPU-minutes instead of GPU-hours (see
// DESIGN.md, substitution table).
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"repro/perfbench/refgp/geom"
	"repro/perfbench/refgp/netlist"
)

// Spec parameterizes one synthetic design.
type Spec struct {
	Name string
	// NumMovable counts movable standard cells (excluding macros).
	NumMovable int
	// NumMacros counts movable macros (newblue1-style).
	NumMacros int
	// NumPads counts fixed zero-area I/O terminals on the periphery.
	NumPads int
	// NumFixedBlocks counts fixed rectangular blockages inside the core.
	NumFixedBlocks int
	// NumNets counts nets; AvgDegree sets the mean pins per net (>= 2).
	NumNets   int
	AvgDegree float64
	// Utilization is movableArea / freeArea used to size the region.
	Utilization float64
	// TargetDensity is the bin density target stored on the design.
	TargetDensity float64
	// Seed makes generation deterministic.
	Seed int64
}

// Validate checks the spec for generability.
func (s Spec) Validate() error {
	if s.NumMovable <= 0 {
		return fmt.Errorf("synth: %s: NumMovable must be positive", s.Name)
	}
	if s.NumNets <= 0 {
		return fmt.Errorf("synth: %s: NumNets must be positive", s.Name)
	}
	if s.AvgDegree < 2 {
		return fmt.Errorf("synth: %s: AvgDegree %g < 2", s.Name, s.AvgDegree)
	}
	if s.Utilization <= 0 || s.Utilization > 1 {
		return fmt.Errorf("synth: %s: Utilization %g outside (0,1]", s.Name, s.Utilization)
	}
	return nil
}

// Generate builds the design described by spec.
func Generate(spec Spec) (*netlist.Design, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	b := netlist.NewBuilder(spec.Name)

	td := spec.TargetDensity
	if td <= 0 {
		td = 1
	}
	b.SetTargetDensity(td)

	// --- geometry budget ---
	const rowHeight = 1.0
	// Standard-cell widths: 1..4 sites, biased small like real libraries.
	widths := []float64{1, 1, 1, 2, 2, 3, 4}
	var stdArea float64
	cellW := make([]float64, spec.NumMovable)
	for i := range cellW {
		cellW[i] = widths[rng.Intn(len(widths))]
		stdArea += cellW[i] * rowHeight
	}
	// Macros take ~2% of std area each.
	macroSide := math.Sqrt(0.02 * stdArea)
	macroSide = math.Max(macroSide, 4*rowHeight)
	macroArea := float64(spec.NumMacros) * macroSide * macroSide
	movableArea := stdArea + macroArea

	// Fixed blocks take ~1.5% of movable area each.
	blockSide := math.Sqrt(0.015 * movableArea)
	fixedArea := float64(spec.NumFixedBlocks) * blockSide * blockSide

	regionArea := movableArea/spec.Utilization + fixedArea
	side := math.Sqrt(regionArea)
	// Snap the region height to whole rows.
	numRows := int(math.Ceil(side / rowHeight))
	region := geom.Rect{XL: 0, YL: 0, XH: side, YH: float64(numRows) * rowHeight}
	b.SetRegion(region)
	for r := 0; r < numRows; r++ {
		b.AddRow(netlist.Row{
			Y:      float64(r) * rowHeight,
			Height: rowHeight,
			XL:     0,
			XH:     side,
			SiteW:  1,
		})
	}

	// --- cells ---
	// dims tracks every added cell's size for pin-offset sampling.
	var dimW, dimH []float64
	addCell := func(name string, kind netlist.CellKind, w, h, x, y float64) int {
		dimW = append(dimW, w)
		dimH = append(dimH, h)
		return b.AddCell(name, kind, w, h, x, y)
	}
	// Movable standard cells with random initial positions (the placer
	// re-initializes; these make the raw design legal-ish to inspect).
	for i := 0; i < spec.NumMovable; i++ {
		x := rng.Float64() * (region.W() - cellW[i])
		y := math.Floor(rng.Float64()*float64(numRows)) * rowHeight
		addCell(fmt.Sprintf("o%d", i), netlist.Movable, cellW[i], rowHeight, x, y)
	}
	for m := 0; m < spec.NumMacros; m++ {
		x := rng.Float64() * (region.W() - macroSide)
		y := rng.Float64() * (region.H() - macroSide)
		addCell(fmt.Sprintf("macro%d", m), netlist.MovableMacro, macroSide, macroSide, x, y)
	}
	for f := 0; f < spec.NumFixedBlocks; f++ {
		x := rng.Float64() * (region.W() - blockSide)
		y := rng.Float64() * (region.H() - blockSide)
		addCell(fmt.Sprintf("fixed%d", f), netlist.Fixed, blockSide, blockSide, x, y)
	}
	firstPad := b.NumCells()
	for p := 0; p < spec.NumPads; p++ {
		// Pads on the periphery, cycling the four edges.
		var x, y float64
		frac := rng.Float64()
		switch p % 4 {
		case 0:
			x, y = frac*region.W(), region.YL
		case 1:
			x, y = frac*region.W(), region.YH
		case 2:
			x, y = region.XL, frac*region.H()
		case 3:
			x, y = region.XH, frac*region.H()
		}
		addCell(fmt.Sprintf("pad%d", p), netlist.Terminal, 0, 0, x, y)
	}

	// --- nets ---
	// Degree = 2 + geometric(p) with mean matching AvgDegree; locality via
	// hierarchical index windows (cells close in index are "close" in the
	// logical hierarchy, mimicking Rent's rule).
	numConnectable := spec.NumMovable + spec.NumMacros
	p := 0.0
	if spec.AvgDegree > 2 {
		p = (spec.AvgDegree - 2) / (spec.AvgDegree - 1)
	}
	sampleDegree := func() int {
		deg := 2
		for deg < 64 && rng.Float64() < p {
			deg++
		}
		return deg
	}
	pinOffset := func(ci int) (dx, dy float64) {
		// A pin somewhere on the cell body.
		return rng.Float64() * dimW[ci], rng.Float64() * dimH[ci]
	}
	seen := make(map[int]bool, 64)
	for e := 0; e < spec.NumNets; e++ {
		net := b.AddNet(fmt.Sprintf("n%d", e), 1)
		deg := sampleDegree()
		// Window size: power-law over the hierarchy (small windows
		// dominate -> local nets dominate).
		window := 4 << uint(rng.Intn(10)) // 4 .. 4096
		if window > numConnectable {
			window = numConnectable
		}
		center := rng.Intn(numConnectable)
		lo := center - window/2
		if lo < 0 {
			lo = 0
		}
		hi := lo + window
		if hi > numConnectable {
			hi = numConnectable
			lo = hi - window
			if lo < 0 {
				lo = 0
			}
		}
		for k := range seen {
			delete(seen, k)
		}
		for d := 0; d < deg; d++ {
			var ci int
			if spec.NumPads > 0 && d == 0 && rng.Float64() < 0.02 {
				// ~2% of nets are I/O nets anchored at a pad.
				ci = firstPad + rng.Intn(spec.NumPads)
			} else {
				ci = lo + rng.Intn(hi-lo)
				for tries := 0; seen[ci] && tries < 4; tries++ {
					ci = rng.Intn(numConnectable)
				}
				if seen[ci] {
					continue
				}
				seen[ci] = true
			}
			dx, dy := pinOffset(ci)
			b.AddPin(net, ci, dx, dy)
		}
	}

	d, err := b.Build()
	if err != nil {
		return nil, err
	}
	// Connect any isolated movable cells to a random existing net so every
	// cell has wirelength pull (real benchmarks have almost no orphans).
	// Rebuild only if needed.
	orphans := []int{}
	for _, c := range d.MovableIndices() {
		if len(d.PinsOfCell(c)) == 0 {
			orphans = append(orphans, c)
		}
	}
	if len(orphans) > 0 {
		d = attachOrphans(d, orphans, rng)
	}
	return d, nil
}

// attachOrphans appends one pin per orphan cell to a random net, rebuilding
// the design's CSR arrays.
func attachOrphans(d *netlist.Design, orphans []int, rng *rand.Rand) *netlist.Design {
	b := netlist.NewBuilder(d.Name)
	b.SetRegion(d.Region)
	b.SetTargetDensity(d.TargetDensity)
	for _, r := range d.Rows {
		b.AddRow(r)
	}
	for i, c := range d.Cells {
		b.AddCell(c.Name, c.Kind, c.W, c.H, d.X[i], d.Y[i])
	}
	for e := range d.Nets {
		ne := b.AddNet(d.Nets[e].Name, d.Nets[e].Weight)
		for _, p := range d.NetPins(e) {
			b.AddPin(ne, int(p.Cell), p.Dx, p.Dy)
		}
	}
	for _, c := range orphans {
		e := rng.Intn(len(d.Nets))
		b.AddPin(e, c, rng.Float64()*d.Cells[c].W, rng.Float64()*d.Cells[c].H)
	}
	return b.MustBuild()
}
