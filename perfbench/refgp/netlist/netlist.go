// Package netlist defines the circuit data model used by every stage of the
// placement flow: cells, pins, nets, standard-cell rows, and the placement
// region, together with derived statistics and validity checks.
//
// The representation is array-oriented (CSR-style flattened pin arrays) so
// that the hot loops of global placement iterate over contiguous memory:
//
//   - Design.Pins holds every pin, grouped by net; Design.NetStart[e] ..
//     Design.NetStart[e+1] delimit the pins of net e.
//   - Design.CellPins / CellPinStart provide the transposed view (pins of a
//     cell), used by incremental HPWL updates in detailed placement.
//
// Cell positions (X, Y) are the lower-left corner of the cell, following the
// Bookshelf .pl convention; pin offsets (Dx, Dy) are relative to that corner.
package netlist

import (
	"fmt"
	"math"
	"sync"

	"repro/perfbench/refgp/geom"
)

// CellKind classifies a cell for the placement flow.
type CellKind uint8

const (
	// Movable is a standard cell the placer may move freely.
	Movable CellKind = iota
	// Fixed is a pre-placed blockage or fixed macro that must not move.
	Fixed
	// Terminal is a fixed I/O pad, typically on the die periphery. It is
	// treated like Fixed by every algorithm but kept distinct for
	// statistics and Bookshelf round-tripping.
	Terminal
	// MovableMacro is a large movable block (e.g. the newblue1 macros the
	// paper highlights). It participates in global placement like a
	// movable cell but is legalized separately.
	MovableMacro
)

func (k CellKind) String() string {
	switch k {
	case Movable:
		return "movable"
	case Fixed:
		return "fixed"
	case Terminal:
		return "terminal"
	case MovableMacro:
		return "movable-macro"
	}
	return fmt.Sprintf("CellKind(%d)", uint8(k))
}

// Moves reports whether a cell of this kind is repositioned by the placer.
func (k CellKind) Moves() bool { return k == Movable || k == MovableMacro }

// Cell is a placeable or fixed circuit component.
type Cell struct {
	Name string
	W, H float64
	Kind CellKind
}

// Area returns the cell area.
func (c Cell) Area() float64 { return c.W * c.H }

// Pin connects a cell to a net at an offset from the cell's lower-left
// corner.
type Pin struct {
	Cell int32
	Net  int32
	// Dx, Dy are the pin offsets from the cell's lower-left corner.
	Dx, Dy float64
}

// Net is a named hyperedge; its pins live in Design.Pins.
type Net struct {
	Name string
	// Weight scales the net's wirelength contribution. 1 by default.
	Weight float64
}

// Row is a standard-cell row for legalization.
type Row struct {
	Y      float64 // bottom of the row
	Height float64
	XL, XH float64 // usable horizontal span
	SiteW  float64 // site width (placement grid along the row)
}

// Sites returns the number of whole sites in the row.
func (r Row) Sites() int {
	if r.SiteW <= 0 {
		return 0
	}
	return int((r.XH - r.XL) / r.SiteW)
}

// Design is a complete placement instance.
type Design struct {
	Name string

	Cells []Cell
	// X, Y are the current lower-left coordinates of every cell, indexed
	// like Cells. Fixed cells' entries never change.
	X, Y []float64

	Nets []Net
	// Pins grouped by net: pins of net e are Pins[NetStart[e]:NetStart[e+1]].
	Pins     []Pin
	NetStart []int32

	// CellPins lists pin indices (into Pins) grouped by cell:
	// CellPins[CellPinStart[c]:CellPinStart[c+1]] are the pins of cell c.
	CellPins     []int32
	CellPinStart []int32

	// Region is the placement area (core region).
	Region geom.Rect
	// Rows are the standard-cell rows inside Region. May be empty for
	// purely analytical studies; legalization requires them.
	Rows []Row
	// TargetDensity is the density upper bound per bin (utilization
	// target), e.g. 1.0 for wirelength-driven contests.
	TargetDensity float64

	// lanes is the flat structure-of-arrays view of the pin topology,
	// built once (lazily, or eagerly by Builder.Build/Clone) and immutable
	// afterwards. Guarded by lanesOnce so concurrent evaluators share one
	// copy safely.
	lanesOnce sync.Once
	lanes     Lanes
}

// Lanes is the structure-of-arrays mirror of Design.Pins used by the
// evaluation hot paths: one contiguous lane per pin field, indexed like
// Pins and delimited per net by Design.NetStart. Splitting the 24-byte Pin
// records into an int32 lane and two float64 lanes lets the gather/scatter
// loops stream each field sequentially with no struct padding in the way.
//
// Lanes hold only immutable topology — cell indices and pin offsets. Net
// weights are deliberately absent: they are user-mutable after Build
// (experiments re-weight nets in place), so evaluators read
// Design.Nets[e].Weight at evaluation time.
type Lanes struct {
	// PinCell[i] == Pins[i].Cell.
	PinCell []int32
	// PinDx[i], PinDy[i] == Pins[i].Dx, Pins[i].Dy.
	PinDx, PinDy []float64
}

// PinLanes returns the design's flat pin lanes, building them on first use.
// The returned Lanes are shared and must be treated as read-only; the pin
// topology (Pins, NetStart) must not change after the first call.
func (d *Design) PinLanes() *Lanes {
	d.lanesOnce.Do(d.buildLanes)
	return &d.lanes
}

func (d *Design) buildLanes() {
	n := len(d.Pins)
	d.lanes = Lanes{
		PinCell: make([]int32, n),
		PinDx:   make([]float64, n),
		PinDy:   make([]float64, n),
	}
	for i, p := range d.Pins {
		d.lanes.PinCell[i] = p.Cell
		d.lanes.PinDx[i] = p.Dx
		d.lanes.PinDy[i] = p.Dy
	}
}

// NetPins returns the pins of net e as a sub-slice of d.Pins.
func (d *Design) NetPins(e int) []Pin {
	return d.Pins[d.NetStart[e]:d.NetStart[e+1]]
}

// NetDegree returns the number of pins on net e.
func (d *Design) NetDegree(e int) int {
	return int(d.NetStart[e+1] - d.NetStart[e])
}

// PinsOfCell returns the indices (into d.Pins) of the pins on cell c.
func (d *Design) PinsOfCell(c int) []int32 {
	return d.CellPins[d.CellPinStart[c]:d.CellPinStart[c+1]]
}

// NumCells returns the total number of cells.
func (d *Design) NumCells() int { return len(d.Cells) }

// NumNets returns the number of nets.
func (d *Design) NumNets() int { return len(d.Nets) }

// NumPins returns the number of pins.
func (d *Design) NumPins() int { return len(d.Pins) }

// PinPos returns the absolute position of pin p under the current placement.
func (d *Design) PinPos(p Pin) geom.Point {
	return geom.Point{X: d.X[p.Cell] + p.Dx, Y: d.Y[p.Cell] + p.Dy}
}

// CellRect returns the bounding rectangle of cell c at its current position.
func (d *Design) CellRect(c int) geom.Rect {
	return geom.Rect{
		XL: d.X[c], YL: d.Y[c],
		XH: d.X[c] + d.Cells[c].W, YH: d.Y[c] + d.Cells[c].H,
	}
}

// MovableIndices returns the indices of all cells that move (standard cells
// and movable macros).
func (d *Design) MovableIndices() []int {
	idx := make([]int, 0, len(d.Cells))
	for i, c := range d.Cells {
		if c.Kind.Moves() {
			idx = append(idx, i)
		}
	}
	return idx
}

// Stats summarizes a design, matching the columns of Table I in the paper.
type Stats struct {
	Name        string
	NumMovable  int
	NumFixed    int // fixed cells + terminals
	NumNets     int
	NumPins     int
	MovableArea float64
	FixedArea   float64 // fixed area inside the region
	RegionArea  float64
	Utilization float64 // movable area / free area
	MaxDegree   int
	AvgDegree   float64
	NumMacros   int // movable macros
}

// ComputeStats derives the statistics of d.
func (d *Design) ComputeStats() Stats {
	s := Stats{
		Name:       d.Name,
		NumNets:    len(d.Nets),
		NumPins:    len(d.Pins),
		RegionArea: d.Region.Area(),
	}
	for i, c := range d.Cells {
		switch c.Kind {
		case Movable:
			s.NumMovable++
			s.MovableArea += c.Area()
		case MovableMacro:
			s.NumMovable++
			s.NumMacros++
			s.MovableArea += c.Area()
		default:
			s.NumFixed++
			s.FixedArea += d.CellRect(i).Intersect(d.Region).Area()
		}
	}
	for e := range d.Nets {
		deg := d.NetDegree(e)
		if deg > s.MaxDegree {
			s.MaxDegree = deg
		}
	}
	if len(d.Nets) > 0 {
		s.AvgDegree = float64(len(d.Pins)) / float64(len(d.Nets))
	}
	if free := s.RegionArea - s.FixedArea; free > 0 {
		s.Utilization = s.MovableArea / free
	}
	return s
}

// Validate checks structural invariants of the design and returns the first
// violation found, or nil if the design is well-formed.
func (d *Design) Validate() error {
	n := len(d.Cells)
	if len(d.X) != n || len(d.Y) != n {
		return fmt.Errorf("netlist: coordinate arrays (%d,%d) do not match %d cells", len(d.X), len(d.Y), n)
	}
	if len(d.NetStart) != len(d.Nets)+1 {
		return fmt.Errorf("netlist: NetStart has %d entries for %d nets", len(d.NetStart), len(d.Nets))
	}
	if len(d.NetStart) > 0 {
		if d.NetStart[0] != 0 || int(d.NetStart[len(d.Nets)]) != len(d.Pins) {
			return fmt.Errorf("netlist: NetStart does not span the pin array")
		}
	}
	for e := 0; e < len(d.Nets); e++ {
		if d.NetStart[e] > d.NetStart[e+1] {
			return fmt.Errorf("netlist: net %d has negative pin count", e)
		}
		for _, p := range d.Pins[d.NetStart[e]:d.NetStart[e+1]] {
			if int(p.Net) != e {
				return fmt.Errorf("netlist: net %d's pin range contains a pin of net %d", e, p.Net)
			}
		}
	}
	for i, p := range d.Pins {
		if p.Cell < 0 || int(p.Cell) >= n {
			return fmt.Errorf("netlist: pin %d references cell %d of %d", i, p.Cell, n)
		}
		if p.Net < 0 || int(p.Net) >= len(d.Nets) {
			return fmt.Errorf("netlist: pin %d references net %d of %d", i, p.Net, len(d.Nets))
		}
		if math.IsNaN(p.Dx) || math.IsNaN(p.Dy) {
			return fmt.Errorf("netlist: pin %d has NaN offset", i)
		}
	}
	if len(d.CellPinStart) != n+1 {
		return fmt.Errorf("netlist: CellPinStart has %d entries for %d cells", len(d.CellPinStart), n)
	}
	if n > 0 && int(d.CellPinStart[n]) != len(d.CellPins) {
		return fmt.Errorf("netlist: CellPinStart does not span CellPins")
	}
	for c := 0; c < n; c++ {
		for _, pi := range d.PinsOfCell(c) {
			if int(d.Pins[pi].Cell) != c {
				return fmt.Errorf("netlist: CellPins of cell %d contains pin of cell %d", c, d.Pins[pi].Cell)
			}
		}
	}
	for i, c := range d.Cells {
		if c.W < 0 || c.H < 0 {
			return fmt.Errorf("netlist: cell %d (%s) has negative size", i, c.Name)
		}
		if math.IsNaN(d.X[i]) || math.IsNaN(d.Y[i]) {
			return fmt.Errorf("netlist: cell %d (%s) has NaN position", i, c.Name)
		}
	}
	if d.Region.Empty() {
		return fmt.Errorf("netlist: empty placement region %v", d.Region)
	}
	return nil
}

// Clone returns a deep copy of the design. The copy shares no mutable state
// with the original, so flows for different wirelength models can run from
// identical starting points.
func (d *Design) Clone() *Design {
	c := &Design{
		Name:          d.Name,
		Cells:         append([]Cell(nil), d.Cells...),
		X:             append([]float64(nil), d.X...),
		Y:             append([]float64(nil), d.Y...),
		Nets:          append([]Net(nil), d.Nets...),
		Pins:          append([]Pin(nil), d.Pins...),
		NetStart:      append([]int32(nil), d.NetStart...),
		CellPins:      append([]int32(nil), d.CellPins...),
		CellPinStart:  append([]int32(nil), d.CellPinStart...),
		Region:        d.Region,
		Rows:          append([]Row(nil), d.Rows...),
		TargetDensity: d.TargetDensity,
	}
	c.PinLanes()
	return c
}

// CopyPositionsFrom copies cell positions from src; the designs must have the
// same number of cells.
func (d *Design) CopyPositionsFrom(src *Design) {
	copy(d.X, src.X)
	copy(d.Y, src.Y)
}

// CenterX returns the x coordinate of cell c's center.
func (d *Design) CenterX(c int) float64 { return d.X[c] + d.Cells[c].W/2 }

// CenterY returns the y coordinate of cell c's center.
func (d *Design) CenterY(c int) float64 { return d.Y[c] + d.Cells[c].H/2 }

// SetCenter moves cell c so that its center is at (cx, cy).
func (d *Design) SetCenter(c int, cx, cy float64) {
	d.X[c] = cx - d.Cells[c].W/2
	d.Y[c] = cy - d.Cells[c].H/2
}

// ClampToRegion moves movable cells so they lie fully inside the region.
func (d *Design) ClampToRegion() {
	r := d.Region
	for i, c := range d.Cells {
		if !c.Kind.Moves() {
			continue
		}
		d.X[i] = geom.Clamp(d.X[i], r.XL, math.Max(r.XL, r.XH-c.W))
		d.Y[i] = geom.Clamp(d.Y[i], r.YL, math.Max(r.YL, r.YH-c.H))
	}
}
