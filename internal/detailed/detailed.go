// Package detailed implements legality-preserving detailed placement in the
// style of ABCDPlace's CPU passes: global swap (move each cell toward the
// median of its nets, swapping with an equal-width cell or sliding into
// whitespace when profitable) and local reordering (optimal permutation of
// small windows of consecutive cells in a row). Both passes strictly
// decrease HPWL or leave the placement unchanged.
package detailed

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/netlist"
	"repro/internal/wirelength"
)

// Options configures the detailed placer.
type Options struct {
	// Passes is the number of (swap + reorder) rounds (default 3).
	Passes int
	// WindowSize is the reordering window (default 3, max 5).
	WindowSize int
	// SearchRows bounds the vertical swap search (default 3 rows each way).
	SearchRows int
	// UseISM additionally runs independent-set matching each pass (the
	// third ABCDPlace move): exact Hungarian assignment within batches of
	// net-disjoint equal-width cells.
	UseISM bool
	// ISMBatch is the matching batch size (default 8, exact assignment is
	// O(batch^3)).
	ISMBatch int
}

// Result summarizes a detailed placement run.
type Result struct {
	// HPWL is the final exact wirelength (DPWL in the paper's tables).
	HPWL float64
	// StartHPWL is the wirelength of the input placement.
	StartHPWL float64
	// Moves and Swaps count accepted whitespace moves and cell swaps.
	Moves, Swaps int
	// Reorders counts accepted window permutations.
	Reorders int
	// ISMBatches counts batches improved by independent-set matching.
	ISMBatches int
}

// entry is one slot in a row: a standard cell or a blockage interval.
type entry struct {
	x, w float64
	cell int32 // -1 for obstacles
}

type rowState struct {
	y      float64
	xl, xh float64
	items  []entry // sorted by x
}

// maxWindow caps the reordering window: a window of n cells tries n!
// permutations.
const maxWindow = 5

type state struct {
	d    *netlist.Design
	rows []rowState
	// rowOf and slotOf place each standard cell: its row index and its index
	// into that row's items. Both are -1 for macros, fixed cells and pads.
	rowOf, slotOf []int32
	// boxes holds every net's pin bounding box at the current positions.
	// buildState builds it and every position write refreshes the boxes of
	// the moved cells' nets (refreshNets), so hpwlDelta reads a touched
	// net's current box instead of walking its pins for every candidate.
	boxes []box
	// hpwlDelta's scratch: the nets a candidate touches, deduped by netMark,
	// and the moved cells' trial positions, read where moved marks the cell.
	nets       []int32
	netMark    marks
	moved      marks
	movX, movY []float64
	// optimalPoint's scratch.
	xs, ys []float64
	// perms[n] is the permutation table of an n-cell reorder window, built
	// on first use.
	perms [maxWindow + 1][][]int
	// matchBatch's scratch: a batch's slot positions and places, its
	// assignment cost matrix, whose rows are resliced from costFlat, and the
	// assignment solver's lanes.
	slotX, slotY []float64
	slotLoc      []rowSlot
	cost         [][]float64
	costFlat     []float64
	assign       hungarian
}

// box is a net's pin bounding box.
type box struct {
	xl, xh, yl, yh float64
}

// marks is a set of small non-negative integers that empties in O(1): k is
// in the set while stamp[k] == epoch. next moves to a fresh epoch; only when
// the epoch counter wraps are the stamps cleared, so a stamp left 2^32
// epochs ago never reads as current. A new set is empty.
type marks struct {
	stamp []uint32
	epoch uint32
}

func newMarks(n int) marks { return marks{stamp: make([]uint32, n), epoch: 1} }

// next empties the set.
func (m *marks) next() {
	m.epoch++
	if m.epoch == 0 {
		clear(m.stamp)
		m.epoch = 1
	}
}

func (m *marks) has(k int32) bool { return m.stamp[k] == m.epoch }

func (m *marks) add(k int32) { m.stamp[k] = m.epoch }

// Place runs detailed placement on a legal design, preserving legality.
func Place(d *netlist.Design, opt Options) (*Result, error) {
	if opt.Passes <= 0 {
		opt.Passes = 3
	}
	if opt.WindowSize <= 0 {
		opt.WindowSize = 3
	}
	if opt.WindowSize > maxWindow {
		opt.WindowSize = maxWindow
	}
	if opt.SearchRows <= 0 {
		opt.SearchRows = 3
	}
	st, err := buildState(d)
	if err != nil {
		return nil, err
	}
	res := &Result{StartHPWL: wirelength.TotalHPWL(d)}
	for p := 0; p < opt.Passes; p++ {
		moves, swaps := st.globalSwapPass(opt.SearchRows)
		reorders := st.reorderPass(opt.WindowSize)
		isms := 0
		if opt.UseISM {
			isms = st.ismPass(opt.ISMBatch)
		}
		res.Moves += moves
		res.Swaps += swaps
		res.Reorders += reorders
		res.ISMBatches += isms
		if moves+swaps+reorders+isms == 0 {
			break
		}
	}
	res.HPWL = wirelength.TotalHPWL(d)
	return res, nil
}

// buildState indexes the legal placement into per-row occupancy lists.
func buildState(d *netlist.Design) (*state, error) {
	if len(d.Rows) == 0 {
		return nil, fmt.Errorf("detailed: design has no rows")
	}
	rows := append([]netlist.Row(nil), d.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Y < rows[j].Y })
	n := len(d.Cells)
	st := &state{
		d:       d,
		rowOf:   make([]int32, n),
		slotOf:  make([]int32, n),
		netMark: newMarks(len(d.Nets)),
		moved:   newMarks(n),
		movX:    make([]float64, n),
		movY:    make([]float64, n),
	}
	for c := range st.rowOf {
		st.rowOf[c], st.slotOf[c] = -1, -1
	}
	st.rows = make([]rowState, len(rows))
	rowIdx := make(map[float64]int, len(rows))
	for i, r := range rows {
		st.rows[i] = rowState{y: r.Y, xl: r.XL, xh: r.XH}
		rowIdx[r.Y] = i
	}
	findRow := func(y float64) (int, bool) {
		if i, ok := rowIdx[y]; ok {
			return i, true
		}
		for i, r := range st.rows {
			if math.Abs(r.y-y) < 1e-6 {
				return i, true
			}
		}
		return 0, false
	}

	// Obstacles: fixed cells and movable macros.
	for i, c := range d.Cells {
		isObstacle := (c.Kind == netlist.Fixed && c.Area() > 0) || c.Kind == netlist.MovableMacro
		if !isObstacle {
			continue
		}
		r := d.CellRect(i)
		for ri := range st.rows {
			rowTop := st.rows[ri].y + rows[ri].Height
			if r.YL < rowTop && r.YH > st.rows[ri].y {
				st.rows[ri].items = append(st.rows[ri].items, entry{x: r.XL, w: r.W(), cell: -1})
			}
		}
	}
	for _, c := range d.MovableIndices() {
		if d.Cells[c].Kind == netlist.MovableMacro {
			continue
		}
		ri, ok := findRow(d.Y[c])
		if !ok {
			return nil, fmt.Errorf("detailed: cell %d not on a row (y=%g); legalize first", c, d.Y[c])
		}
		st.rows[ri].items = append(st.rows[ri].items, entry{x: d.X[c], w: d.Cells[c].W, cell: int32(c)})
		st.rowOf[c] = int32(ri)
	}
	for ri := range st.rows {
		items := st.rows[ri].items
		sort.Slice(items, func(a, b int) bool { return items[a].x < items[b].x })
		// Merge overlapping obstacle intervals (fixed blocks may overlap
		// each other legally); then sanity-check movable cells.
		merged := items[:0]
		for _, e := range items {
			if n := len(merged); n > 0 && e.cell < 0 && merged[n-1].cell < 0 &&
				merged[n-1].x+merged[n-1].w > e.x {
				if end := e.x + e.w; end > merged[n-1].x+merged[n-1].w {
					merged[n-1].w = end - merged[n-1].x
				}
				continue
			}
			merged = append(merged, e)
		}
		st.rows[ri].items = merged
		items = merged
		for si, e := range items {
			if e.cell >= 0 {
				st.slotOf[e.cell] = int32(si)
			}
		}
		for si := 1; si < len(items); si++ {
			if items[si-1].x+items[si-1].w > items[si].x+1e-6 {
				return nil, fmt.Errorf("detailed: input row y=%g has overlap at slot %d; legalize first", st.rows[ri].y, si)
			}
		}
	}
	st.boxes = make([]box, len(d.Nets))
	for e := range st.boxes {
		st.boxes[e] = st.netBox(int32(e))
	}
	return st, nil
}

// netBox walks net e's pins and returns their bounding box at the current
// positions.
func (st *state) netBox(e int32) box {
	d := st.d
	ln := d.PinLanes()
	pc, pdx, pdy := ln.PinCell, ln.PinDx, ln.PinDy
	s0, s1 := d.NetStart[e], d.NetStart[e+1]
	var b box
	for i := s0; i < s1; i++ {
		c := pc[i]
		x := d.X[c] + pdx[i]
		y := d.Y[c] + pdy[i]
		if i == s0 {
			b = box{x, x, y, y}
			continue
		}
		b.xl = min(b.xl, x)
		b.xh = max(b.xh, x)
		b.yl = min(b.yl, y)
		b.yh = max(b.yh, y)
	}
	return b
}

// refreshNets rebuilds the boxes of cell c's nets after a write to its
// position.
func (st *state) refreshNets(c int32) {
	d := st.d
	for _, pi := range d.PinsOfCell(int(c)) {
		e := d.Pins[pi].Net
		st.boxes[e] = st.netBox(e)
	}
}

// hpwlDelta returns the change in total HPWL if cells[i] moved to (newX[i],
// newY[i]) (negative is an improvement). It visits each touched net once, in
// the order the cells' pins first reach it, walks its pins for the box after
// the move and reads the box before it from boxes, and allocates nothing.
func (st *state) hpwlDelta(cells []int32, newX, newY []float64) float64 {
	d := st.d
	st.moved.next()
	st.netMark.next()
	nets := st.nets[:0]
	for i, c := range cells {
		st.moved.add(c)
		st.movX[c], st.movY[c] = newX[i], newY[i]
		for _, pi := range d.PinsOfCell(int(c)) {
			if e := d.Pins[pi].Net; !st.netMark.has(e) {
				st.netMark.add(e)
				nets = append(nets, e)
			}
		}
	}
	st.nets = nets
	ln := d.PinLanes()
	pc, pdx, pdy := ln.PinCell, ln.PinDx, ln.PinDy
	X, Y, movX, movY := d.X, d.Y, st.movX, st.movY
	delta := 0.0
	for _, e := range nets {
		s0, s1 := d.NetStart[e], d.NetStart[e+1]
		var nxl, nxh, nyl, nyh float64
		for i := s0; i < s1; i++ {
			c := pc[i]
			nx := X[c] + pdx[i]
			ny := Y[c] + pdy[i]
			if st.moved.has(c) {
				nx = movX[c] + pdx[i]
				ny = movY[c] + pdy[i]
			}
			if i == s0 {
				nxl, nxh, nyl, nyh = nx, nx, ny, ny
				continue
			}
			nxl = min(nxl, nx)
			nxh = max(nxh, nx)
			nyl = min(nyl, ny)
			nyh = max(nyh, ny)
		}
		o := st.boxes[e]
		w := d.Nets[e].Weight
		delta += w * ((nxh - nxl + nyh - nyl) - (o.xh - o.xl + o.yh - o.yl))
	}
	return delta
}

// optimalPoint returns the median-based optimal region center for cell c:
// the median of the other pins' coordinates across all its nets.
func (st *state) optimalPoint(c int32) (float64, float64) {
	d := st.d
	xs, ys := st.xs[:0], st.ys[:0]
	for _, pi := range d.PinsOfCell(int(c)) {
		e := d.Pins[pi].Net
		for _, p := range d.NetPins(int(e)) {
			if p.Cell == c {
				continue
			}
			xs = append(xs, d.X[p.Cell]+p.Dx)
			ys = append(ys, d.Y[p.Cell]+p.Dy)
		}
	}
	st.xs, st.ys = xs, ys
	if len(xs) == 0 {
		return d.X[c], d.Y[c]
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	return xs[len(xs)/2], ys[len(ys)/2]
}
