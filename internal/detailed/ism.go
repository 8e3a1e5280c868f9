package detailed

import (
	"sort"
)

// ismPass runs independent-set matching (the third ABCDPlace move): batches
// of equal-width cells that share no nets are collected, the HPWL cost of
// every cell-to-slot assignment within a batch is evaluated, and the optimal
// permutation is applied via the Hungarian algorithm. Because the batch is
// net-disjoint, per-cell deltas are additive, so the matching is exact.
// Returns the number of batches whose assignment changed.
func (st *state) ismPass(batchSize int) int {
	if batchSize < 2 {
		batchSize = 8
	}
	d := st.d
	// Group movable std cells by width, ordered spatially so batches are
	// local (swapping far-apart cells rarely helps and slows convergence).
	byWidth := map[float64][]int32{}
	for ci := range d.Cells {
		if st.rowOf[ci] < 0 {
			continue
		}
		byWidth[d.Cells[ci].W] = append(byWidth[d.Cells[ci].W], int32(ci))
	}
	widths := make([]float64, 0, len(byWidth))
	for w := range byWidth {
		widths = append(widths, w)
	}
	sort.Float64s(widths)

	improved := 0
	nets := newMarks(len(d.Nets)) // the current batch's nets
	for _, w := range widths {
		cells := byWidth[w]
		sort.Slice(cells, func(a, b int) bool {
			ca, cb := cells[a], cells[b]
			if d.Y[ca] != d.Y[cb] {
				return d.Y[ca] < d.Y[cb]
			}
			return d.X[ca] < d.X[cb]
		})
		// Greedy net-disjoint batching over the spatial order.
		batch := make([]int32, 0, batchSize)
		flush := func() {
			if len(batch) >= 2 && st.matchBatch(batch) {
				improved++
			}
			batch = batch[:0]
			nets.next()
		}
		for _, c := range cells {
			conflict := false
			for _, pi := range d.PinsOfCell(int(c)) {
				if nets.has(d.Pins[pi].Net) {
					conflict = true
					break
				}
			}
			if conflict {
				flush()
			}
			batch = append(batch, c)
			for _, pi := range d.PinsOfCell(int(c)) {
				nets.add(d.Pins[pi].Net)
			}
			if len(batch) == batchSize {
				flush()
			}
		}
		flush()
	}
	return improved
}

// matchBatch assigns the batch's cells optimally to the batch's slots and
// applies the permutation when it strictly improves HPWL. Reports whether
// anything moved.
func (st *state) matchBatch(batch []int32) bool {
	d := st.d
	n := len(batch)
	// Slot j is cell batch[j]'s current position.
	slotX := grow(&st.slotX, n)
	slotY := grow(&st.slotY, n)
	for j, c := range batch {
		slotX[j] = d.X[c]
		slotY[j] = d.Y[c]
	}
	flat := grow(&st.costFlat, n*n)
	cost := grow(&st.cost, n)
	for i, c := range batch {
		cost[i] = flat[i*n : (i+1)*n : (i+1)*n]
		for j := 0; j < n; j++ {
			if i == j {
				cost[i][j] = 0
				continue
			}
			// Net-disjointness makes single-cell deltas additive.
			cost[i][j] = st.hpwlDelta([]int32{c}, []float64{slotX[j]}, []float64{slotY[j]})
		}
	}
	perm := st.assign.solve(cost)
	total := 0.0
	identity := true
	for i, j := range perm {
		total += cost[i][j]
		if i != j {
			identity = false
		}
	}
	if identity || total >= -1e-12 {
		return false
	}
	// Apply: each cell i takes slot perm[i]. Swap row bookkeeping by
	// rebuilding the touched slots (all slots belong to batch cells, and
	// widths are equal, so positions exchange cleanly).
	slotLoc := grow(&st.slotLoc, n)
	for j, c := range batch {
		slotLoc[j] = rowSlot{st.rowOf[c], st.slotOf[c]}
	}
	for i, c := range batch {
		j := perm[i]
		d.X[c] = slotX[j]
		d.Y[c] = slotY[j]
		l := slotLoc[j]
		st.rows[l.row].items[l.slot].cell = c
		st.rowOf[c] = l.row
		st.slotOf[c] = l.slot
	}
	for _, c := range batch {
		st.refreshNets(c)
	}
	return true
}

// rowSlot places a standard cell: its row index and its index into that
// row's items.
type rowSlot struct {
	row, slot int32
}
