package netlist

import (
	"fmt"

	"repro/internal/geom"
)

// Builder incrementally assembles a Design. It buffers pins per net and
// finalizes the CSR arrays (NetStart, CellPins) in Build.
type Builder struct {
	name     string
	cells    []Cell
	x, y     []float64
	nets     []Net
	netPins  [][]Pin
	region   geom.Rect
	rows     []Row
	density  float64
	cellByNm map[string]int
}

// NewBuilder creates a builder for a design with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:     name,
		density:  1.0,
		cellByNm: make(map[string]int),
	}
}

// SetRegion sets the placement region.
func (b *Builder) SetRegion(r geom.Rect) *Builder {
	b.region = r
	return b
}

// SetTargetDensity sets the bin density target.
func (b *Builder) SetTargetDensity(td float64) *Builder {
	b.density = td
	return b
}

// AddRow appends a standard-cell row.
func (b *Builder) AddRow(r Row) *Builder {
	b.rows = append(b.rows, r)
	return b
}

// AddCell appends a cell with an initial position and returns its index.
func (b *Builder) AddCell(name string, kind CellKind, w, h, x, y float64) int {
	idx := len(b.cells)
	b.cells = append(b.cells, Cell{Name: name, W: w, H: h, Kind: kind})
	b.x = append(b.x, x)
	b.y = append(b.y, y)
	if name != "" {
		b.cellByNm[name] = idx
	}
	return idx
}

// CellIndex looks up a cell by name.
func (b *Builder) CellIndex(name string) (int, bool) {
	i, ok := b.cellByNm[name]
	return i, ok
}

// NumCells returns the number of cells added so far.
func (b *Builder) NumCells() int { return len(b.cells) }

// AddNet appends an empty net and returns its index.
func (b *Builder) AddNet(name string, weight float64) int {
	idx := len(b.nets)
	b.nets = append(b.nets, Net{Name: name, Weight: weight})
	b.netPins = append(b.netPins, nil)
	return idx
}

// AddPin attaches a pin to net e on cell c with offsets from the cell's
// lower-left corner.
func (b *Builder) AddPin(e, c int, dx, dy float64) {
	b.netPins[e] = append(b.netPins[e], Pin{Cell: int32(c), Net: int32(e), Dx: dx, Dy: dy})
}

// Build finalizes the design, constructing the flattened pin arrays and the
// cell-to-pin index, and validates the result.
func (b *Builder) Build() (*Design, error) {
	d := &Design{
		Name:          b.name,
		Cells:         b.cells,
		X:             b.x,
		Y:             b.y,
		Nets:          b.nets,
		Region:        b.region,
		Rows:          b.rows,
		TargetDensity: b.density,
	}
	totalPins := 0
	for _, ps := range b.netPins {
		totalPins += len(ps)
	}
	d.Pins = make([]Pin, 0, totalPins)
	d.NetStart = make([]int32, len(b.nets)+1)
	for e, ps := range b.netPins {
		d.NetStart[e] = int32(len(d.Pins))
		d.Pins = append(d.Pins, ps...)
		_ = e
	}
	d.NetStart[len(b.nets)] = int32(len(d.Pins))

	d.indexCellPins()

	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("netlist build: %w", err)
	}
	d.PinLanes() // build the SoA pin lanes eagerly while the caches are warm
	return d, nil
}

// indexCellPins builds the transposed cell -> pin index (CellPinStart,
// CellPins) from d.Pins by a counting sort on the cell.
func (d *Design) indexCellPins() {
	n := len(d.Cells)
	d.CellPinStart = make([]int32, n+1)
	for _, p := range d.Pins {
		d.CellPinStart[p.Cell+1]++
	}
	for c := 0; c < n; c++ {
		d.CellPinStart[c+1] += d.CellPinStart[c]
	}
	d.CellPins = make([]int32, len(d.Pins))
	fill := make([]int32, n)
	for pi, p := range d.Pins {
		c := p.Cell
		d.CellPins[d.CellPinStart[c]+fill[c]] = int32(pi)
		fill[c]++
	}
}

// MustBuild is Build but panics on error; intended for tests and generators
// whose inputs are known-valid by construction.
func (b *Builder) MustBuild() *Design {
	d, err := b.Build()
	if err != nil {
		panic(err)
	}
	return d
}
