package legalize

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// CheckLegal verifies that the design's movable cells form a legal
// placement: standard cells sit exactly on rows inside the region, nothing
// overlaps (movable-movable or movable-fixed). It returns the first
// violation found, or nil.
func CheckLegal(d *netlist.Design) error {
	const eps = 1e-6
	if len(d.Rows) == 0 {
		return fmt.Errorf("legalize: no rows to check against")
	}
	rowY := map[float64]netlist.Row{}
	rows := append([]netlist.Row(nil), d.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Y < rows[j].Y })
	for _, r := range rows {
		rowY[r.Y] = r
	}
	findRow := func(y float64) (netlist.Row, bool) {
		// Exact map hit first, then tolerance scan.
		if r, ok := rowY[y]; ok {
			return r, true
		}
		for _, r := range rows {
			if math.Abs(r.Y-y) <= eps {
				return r, true
			}
		}
		return netlist.Row{}, false
	}

	type placed struct {
		rect geom.Rect
		idx  int
	}
	var stdCells []placed
	var bigCells []placed // macros: checked all-pairs (few of them)

	for _, c := range d.MovableIndices() {
		rect := d.CellRect(c)
		if !d.Region.Expand(eps).ContainsRect(rect) {
			return fmt.Errorf("legalize: cell %d (%s) at %v outside region %v", c, d.Cells[c].Name, rect, d.Region)
		}
		if d.Cells[c].Kind == netlist.MovableMacro {
			bigCells = append(bigCells, placed{rect, c})
			continue
		}
		row, ok := findRow(d.Y[c])
		if !ok {
			return fmt.Errorf("legalize: cell %d (%s) y=%g not on any row", c, d.Cells[c].Name, d.Y[c])
		}
		if rect.XL < row.XL-eps || rect.XH > row.XH+eps {
			return fmt.Errorf("legalize: cell %d (%s) outside row span [%g,%g]", c, d.Cells[c].Name, row.XL, row.XH)
		}
		stdCells = append(stdCells, placed{rect, c})
	}

	// Std-cell overlap: sweep the cells by row (YL) and x, rows in ascending
	// y, so the first violation reported is the same on every call.
	byRow := append([]placed(nil), stdCells...)
	sort.Slice(byRow, func(i, j int) bool {
		a, b := byRow[i].rect, byRow[j].rect
		if a.YL != b.YL {
			return a.YL < b.YL
		}
		return a.XL < b.XL
	})
	for i := 1; i < len(byRow); i++ {
		prev, cur := byRow[i-1], byRow[i]
		if prev.rect.YL == cur.rect.YL && prev.rect.XH > cur.rect.XL+eps {
			return fmt.Errorf("legalize: cells %d and %d overlap in row y=%g (%v vs %v)",
				prev.idx, cur.idx, prev.rect.YL, prev.rect, cur.rect)
		}
	}

	// Fixed obstacles.
	var obstacles []placed
	for i, c := range d.Cells {
		if c.Kind == netlist.Fixed && c.Area() > 0 {
			obstacles = append(obstacles, placed{d.CellRect(i), i})
		}
	}
	shrunk := func(r geom.Rect) geom.Rect { return r.Expand(-eps) }
	for _, ob := range obstacles {
		for _, p := range stdCells {
			if shrunk(p.rect).Overlaps(ob.rect) {
				return fmt.Errorf("legalize: cell %d overlaps fixed obstacle %d", p.idx, ob.idx)
			}
		}
	}
	// Macros against everything.
	for i, m := range bigCells {
		for j := i + 1; j < len(bigCells); j++ {
			if shrunk(m.rect).Overlaps(bigCells[j].rect) {
				return fmt.Errorf("legalize: macros %d and %d overlap", m.idx, bigCells[j].idx)
			}
		}
		for _, ob := range obstacles {
			if shrunk(m.rect).Overlaps(ob.rect) {
				return fmt.Errorf("legalize: macro %d overlaps fixed obstacle %d", m.idx, ob.idx)
			}
		}
		for _, p := range stdCells {
			if shrunk(m.rect).Overlaps(p.rect) {
				return fmt.Errorf("legalize: macro %d overlaps cell %d", m.idx, p.idx)
			}
		}
	}
	return nil
}
