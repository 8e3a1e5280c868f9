package detailed

import (
	"math"
	"sort"
)

// globalSwapPass tries, for every cell, a whitespace move or an equal-width
// swap near the median of its nets. Returns accepted (moves, swaps).
func (st *state) globalSwapPass(searchRows int) (moves, swaps int) {
	d := st.d
	for ci := range d.Cells {
		if st.rowOf[ci] < 0 {
			continue // macro, fixed cell or pad
		}
		c := int32(ci)
		optX, optY := st.optimalPoint(c)

		// Candidate rows around the optimal y.
		base := st.nearestRow(optY)
		bestDelta := -1e-12 // require strict improvement
		// best is the most improving candidate so far: a whitespace move
		// to x in row, or a swap with partner.
		var best struct {
			found, swap bool
			row         int
			x           float64
			partner     int32
		}
		w := d.Cells[c].W

		for off := -searchRows; off <= searchRows; off++ {
			ri := base + off
			if ri < 0 || ri >= len(st.rows) {
				continue
			}
			row := &st.rows[ri]
			// -- whitespace moves: gaps around the insertion point.
			lo, hi, gi := st.gapAround(ri, optX, w, c)
			if gi >= 0 {
				x := math.Max(lo, math.Min(optX, hi-w))
				delta := st.hpwlDelta([]int32{c}, []float64{x}, []float64{row.y})
				if delta < bestDelta {
					bestDelta = delta
					best.found, best.swap, best.row, best.x = true, false, ri, x
				}
			}
			// -- equal-width swaps with nearby cells.
			si := sort.Search(len(row.items), func(i int) bool { return row.items[i].x >= optX })
			for probe := si - 2; probe <= si+2; probe++ {
				if probe < 0 || probe >= len(row.items) {
					continue
				}
				s := row.items[probe].cell
				if s < 0 || s == c {
					continue
				}
				if math.Abs(d.Cells[s].W-w) > 1e-9 {
					continue
				}
				delta := st.hpwlDelta(
					[]int32{c, s},
					[]float64{row.items[probe].x, d.X[c]},
					[]float64{row.y, d.Y[c]},
				)
				if delta < bestDelta {
					bestDelta = delta
					best.found, best.swap, best.partner = true, true, s
				}
			}
		}
		switch {
		case best.swap:
			st.applySwap(c, best.partner)
			swaps++
		case best.found:
			st.applyMove(c, best.row, best.x)
			moves++
		}
	}
	return moves, swaps
}

// nearestRow returns the index of the row whose bottom is closest to y.
func (st *state) nearestRow(y float64) int {
	lo, hi := 0, len(st.rows)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if st.rows[mid].y < y {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && math.Abs(st.rows[lo-1].y-y) < math.Abs(st.rows[lo].y-y) {
		return lo - 1
	}
	return lo
}

// gapBounds returns the free interval of gap g in the row (gap g sits
// between items[g-1] and items[g]; g ranges 0..len(items)). Slots occupied
// by `self` are treated as vacated, widening the gap.
func gapBounds(row *rowState, g int, self int32) (lo, hi float64) {
	items := row.items
	lo, hi = row.xl, row.xh
	// Walk left past self to the nearest real neighbor.
	for j := g - 1; j >= 0; j-- {
		if items[j].cell == self {
			continue
		}
		lo = items[j].x + items[j].w
		break
	}
	for j := g; j < len(items); j++ {
		if items[j].cell == self {
			continue
		}
		hi = items[j].x
		break
	}
	return lo, hi
}

// gapAround finds the free interval in row ri covering/nearest x that fits
// width w, ignoring cell self (it vacates its slot). Returns the gap bounds
// and the gap index, or gi = -1 when nothing fits nearby.
func (st *state) gapAround(ri int, x, w float64, self int32) (lo, hi float64, gi int) {
	row := &st.rows[ri]
	items := row.items
	si := sort.Search(len(items), func(i int) bool { return items[i].x >= x })
	bestGap := -1
	bestDist := math.Inf(1)
	gLo, gHi := si-1, si+1
	if gLo < 0 {
		gLo = 0
	}
	if gHi > len(items) {
		gHi = len(items)
	}
	for g := gLo; g <= gHi; g++ {
		lo, hi := gapBounds(row, g, self)
		if hi-lo < w-1e-9 {
			continue
		}
		dist := 0.0
		if x < lo {
			dist = lo - x
		} else if x > hi {
			dist = x - hi
		}
		if dist < bestDist {
			bestDist = dist
			bestGap = g
		}
	}
	if bestGap < 0 {
		return 0, 0, -1
	}
	lo, hi = gapBounds(row, bestGap, self)
	return lo, hi, bestGap
}

// applyMove relocates cell c into row ri at position x, updating indices.
func (st *state) applyMove(c int32, ri int, x float64) {
	d := st.d
	// Remove from the old row.
	old := &st.rows[st.rowOf[c]]
	oldSlot := int(st.slotOf[c])
	old.items = append(old.items[:oldSlot], old.items[oldSlot+1:]...)
	st.reslot(old, oldSlot)
	// Insert into the new row.
	d.X[c] = x
	d.Y[c] = st.rows[ri].y
	row := &st.rows[ri]
	pos := sort.Search(len(row.items), func(i int) bool { return row.items[i].x >= x })
	row.items = append(row.items, entry{})
	copy(row.items[pos+1:], row.items[pos:])
	row.items[pos] = entry{x: x, w: d.Cells[c].W, cell: c}
	st.reslot(row, pos)
	st.rowOf[c] = int32(ri)
	st.refreshNets(c)
}

// reslot re-indexes slotOf for the row's cells from slot from on.
func (st *state) reslot(row *rowState, from int) {
	for si := from; si < len(row.items); si++ {
		if e := row.items[si]; e.cell >= 0 {
			st.slotOf[e.cell] = int32(si)
		}
	}
}

// applySwap exchanges the slots of equal-width cells c and s.
func (st *state) applySwap(c, s int32) {
	d := st.d
	rc, sc := st.rowOf[c], st.slotOf[c]
	rs, ss := st.rowOf[s], st.slotOf[s]
	d.X[c], d.X[s] = d.X[s], d.X[c]
	d.Y[c], d.Y[s] = d.Y[s], d.Y[c]
	st.rows[rc].items[sc].cell = s
	st.rows[rs].items[ss].cell = c
	st.rowOf[c], st.rowOf[s] = rs, rc
	st.slotOf[c], st.slotOf[s] = ss, sc
	st.refreshNets(c)
	st.refreshNets(s)
}

// reorderPass permutes windows of consecutive cells within each row,
// packing each permutation from the window's left edge; the best legal
// permutation by HPWL is kept. window is at most maxWindow. Returns accepted
// reorders.
func (st *state) reorderPass(window int) int {
	d := st.d
	accepted := 0
	var cellBuf, orderBuf [maxWindow]int32
	var xBuf, yBuf [maxWindow]float64
	for ri := range st.rows {
		row := &st.rows[ri]
		for start := 0; start < len(row.items); start++ {
			// Collect up to `window` consecutive movable cells.
			cells := cellBuf[:0]
			end := start
			for end < len(row.items) && len(cells) < window {
				if row.items[end].cell < 0 {
					break
				}
				cells = append(cells, row.items[end].cell)
				end++
			}
			n := len(cells)
			if n < 2 {
				continue
			}
			left := row.items[start].x
			limit := row.xh
			if end < len(row.items) {
				limit = row.items[end].x
			}
			if st.perms[n] == nil {
				st.perms[n] = permutations(n)
			}
			perms := st.perms[n]
			ordered, xs, ys := orderBuf[:n], xBuf[:n], yBuf[:n]
			bestPerm := -1
			bestDelta := -1e-12
			for pi, perm := range perms {
				if pi == 0 {
					continue // identity
				}
				// Pack the permuted cells from `left`: cells[perm[j]]
				// moves to xs[j].
				x := left
				for j, k := range perm {
					c := cells[k]
					ordered[j], xs[j], ys[j] = c, x, row.y
					x += d.Cells[c].W
				}
				if x > limit+1e-9 {
					continue
				}
				delta := st.hpwlDelta(ordered, xs, ys)
				if delta < bestDelta {
					bestDelta = delta
					bestPerm = pi
				}
			}
			if bestPerm < 0 {
				continue
			}
			x := left
			for j, k := range perms[bestPerm] {
				c := cells[k]
				d.X[c] = x
				row.items[start+j] = entry{x: x, w: d.Cells[c].W, cell: c}
				st.slotOf[c] = int32(start + j)
				x += d.Cells[c].W
			}
			for _, c := range cells {
				st.refreshNets(c)
			}
			accepted++
		}
	}
	return accepted
}

// permutations returns all permutations of 0..n-1; permutation 0 is the
// identity. n is small (<= 5).
func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	var rec func(cur []int, rest []int)
	rec = func(cur, rest []int) {
		if len(rest) == 0 {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := range rest {
			next := append(cur, rest[i])
			var rem []int
			rem = append(rem, rest[:i]...)
			rem = append(rem, rest[i+1:]...)
			rec(next, rem)
		}
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	rec(nil, ids)
	return out
}
