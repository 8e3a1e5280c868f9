package netlist

import (
	"bytes"
	"fmt"
	"math/rand"
)

// Delta classifies a resubmitted design (the child) against the design it
// was derived from (the parent): which cells appeared, disappeared, or
// changed shape, and which nets were rewired. The ecocache uses it to decide
// between an exact cache hit, a warm-started partial re-placement (releasing
// only the delta's blast region), and a cold start.
type Delta struct {
	// CellMap maps each child cell index to its parent index, -1 for cells
	// with no parent counterpart (added cells).
	CellMap []int
	// AddedCells, ResizedCells, and MovedFixed are child cell indices:
	// cells with no parent match, matched cells whose kind or dimensions
	// changed, and matched non-movable cells whose pinned position changed.
	AddedCells   []int
	ResizedCells []int
	MovedFixed   []int
	// RemovedCells are parent cell indices with no child match.
	RemovedCells []int
	// RewiredNets are child net indices whose weight or pin multiset
	// differs from the parent (including nets that are entirely new).
	RewiredNets []int
	// RemovedNets are parent net indices with no child match.
	RemovedNets []int
	// Touched lists the child's movable cell indices directly affected by
	// the delta — the seed of the blast region: added/resized cells, cells
	// on rewired or removed nets, and movable cells sharing a net with a
	// moved or resized fixed cell.
	Touched []int
}

// match pairs n child items (cells or nets) with np parent items: by name
// when tryNames is set and every item on both sides has a unique non-empty
// name (the normal case for generated and Bookshelf designs), by index
// otherwise. It returns each child item's parent index (-1 for none), which
// parent items were paired, and whether names were used.
func match(np, n int, tryNames bool, parentName, childName func(int) string) ([]int, []bool, bool) {
	m, paired := make([]int, n), make([]bool, np)
	if tryNames && matchByName(m, paired, parentName, childName) {
		return m, paired, true
	}
	clear(paired)
	for i := range m {
		m[i] = -1
		if i < np {
			m[i], paired[i] = i, true
		}
	}
	return m, paired, false
}

// matchByName fills m and paired by name, or reports false on an empty or
// repeated name. It builds one map, of the parent's names; a repeated child
// name either pairs one parent item twice or recurs among the child names
// the parent lacks, which are kept in a map of their own.
func matchByName(m []int, paired []bool, parentName, childName func(int) string) bool {
	index := make(map[string]int, len(paired))
	for j := range paired {
		s := parentName(j)
		if _, dup := index[s]; dup || s == "" {
			return false
		}
		index[s] = j
	}
	unpaired := map[string]bool{}
	for i := range m {
		s := childName(i)
		j, ok := index[s]
		if s == "" || (ok && paired[j]) || (!ok && unpaired[s]) {
			return false
		}
		if ok {
			m[i], paired[j] = j, true
		} else {
			m[i], unpaired[s] = -1, true
		}
	}
	return true
}

// Diff computes the structural delta from parent to child. Cells and nets
// are matched by name when names are unique and non-empty on both sides,
// falling back to index matching otherwise; nets match by name only when
// cells do.
func Diff(parent, child *Design) *Delta {
	cellMap, parentMatched, byName := match(len(parent.Cells), len(child.Cells), true,
		func(i int) string { return parent.Cells[i].Name },
		func(i int) string { return child.Cells[i].Name })
	dl := &Delta{CellMap: cellMap}
	// childKey keys the child's pins for the net compare: the parent index of
	// a matched cell, or a negative key no parent net contains.
	childKey := make([]int64, len(child.Cells))
	for i, c := range child.Cells {
		pi := cellMap[i]
		childKey[i] = int64(pi)
		if pi < 0 {
			childKey[i] = -1 - int64(i)
			dl.AddedCells = append(dl.AddedCells, i)
			continue
		}
		pc := parent.Cells[pi]
		if pc.Kind != c.Kind || pc.W != c.W || pc.H != c.H {
			dl.ResizedCells = append(dl.ResizedCells, i)
		} else if !c.Kind.Moves() && (parent.X[pi] != child.X[i] || parent.Y[pi] != child.Y[i]) {
			dl.MovedFixed = append(dl.MovedFixed, i)
		}
	}
	for pi, ok := range parentMatched {
		if !ok {
			dl.RemovedCells = append(dl.RemovedCells, pi)
		}
	}

	// Nets compare in canonical form.
	netMap, netMatched, _ := match(len(parent.Nets), len(child.Nets), byName,
		func(e int) string { return parent.Nets[e].Name },
		func(e int) string { return child.Nets[e].Name })
	cf, pf := newNetForm(child), newNetForm(parent)
	for e, pe := range netMap {
		if pe < 0 || !bytes.Equal(cf.encode(child, e, childKey), pf.encode(parent, pe, nil)) {
			dl.RewiredNets = append(dl.RewiredNets, e)
		}
	}
	for pe, ok := range netMatched {
		if !ok {
			dl.RemovedNets = append(dl.RemovedNets, pe)
		}
	}

	dl.Touched = dl.computeTouched(parent, child)
	return dl
}

// computeTouched derives the blast-region seed set (see Delta.Touched).
func (dl *Delta) computeTouched(parent, child *Design) []int {
	mark := make([]bool, len(child.Cells))
	markMovable := func(i int) {
		if i >= 0 && i < len(mark) && child.Cells[i].Kind.Moves() {
			mark[i] = true
		}
	}
	for _, i := range dl.AddedCells {
		markMovable(i)
	}
	for _, i := range dl.ResizedCells {
		markMovable(i)
	}
	// A moved or resized fixed cell (or a removed cell of any kind) changes
	// the neighborhood of every movable cell wired to it.
	disturbed := make([]bool, len(child.Cells))
	for _, i := range dl.ResizedCells {
		if !child.Cells[i].Kind.Moves() {
			disturbed[i] = true
		}
	}
	for _, i := range dl.MovedFixed {
		disturbed[i] = true
	}
	for e := range child.Nets {
		hit := false
		for _, p := range child.NetPins(e) {
			if disturbed[int(p.Cell)] {
				hit = true
				break
			}
		}
		if hit {
			for _, p := range child.NetPins(e) {
				markMovable(int(p.Cell))
			}
		}
	}
	for _, e := range dl.RewiredNets {
		for _, p := range child.NetPins(e) {
			markMovable(int(p.Cell))
		}
	}
	// Cells that survive a removed parent net lost a connection: map the
	// parent's pins back to child indices.
	if len(dl.RemovedNets) > 0 {
		childOf := make(map[int]int, len(dl.CellMap))
		for ci, pi := range dl.CellMap {
			if pi >= 0 {
				childOf[pi] = ci
			}
		}
		for _, pe := range dl.RemovedNets {
			for _, p := range parent.NetPins(pe) {
				if ci, ok := childOf[int(p.Cell)]; ok {
					markMovable(ci)
				}
			}
		}
	}
	var out []int
	for i, m := range mark {
		if m {
			out = append(out, i)
		}
	}
	return out
}

// Empty reports whether the delta carries no semantic change.
func (dl *Delta) Empty() bool {
	return len(dl.AddedCells) == 0 && len(dl.RemovedCells) == 0 &&
		len(dl.ResizedCells) == 0 && len(dl.MovedFixed) == 0 &&
		len(dl.RewiredNets) == 0 && len(dl.RemovedNets) == 0
}

// TouchedFraction returns |Touched| / (movable cells of child): the delta
// size measure the near-hit threshold is applied to.
func (dl *Delta) TouchedFraction(child *Design) float64 {
	movable := 0
	for _, c := range child.Cells {
		if c.Kind.Moves() {
			movable++
		}
	}
	if movable == 0 {
		return 0
	}
	return float64(len(dl.Touched)) / float64(movable)
}

// maxExpandDegree bounds which nets propagate the blast region outward: a
// huge net (clock-like) would otherwise release the whole design in one hop.
const maxExpandDegree = 16

// BlastRegion returns the per-cell release mask for a warm start: true for
// movable cells the engine should re-place, false for everything else. The
// region starts at Touched and expands hops times through shared nets of
// degree <= maxExpandDegree, giving the perturbed cells breathing room to
// resettle without releasing the whole design.
func (dl *Delta) BlastRegion(child *Design, hops int) []bool {
	release := make([]bool, len(child.Cells))
	frontier := make([]int, 0, len(dl.Touched))
	for _, i := range dl.Touched {
		release[i] = true
		frontier = append(frontier, i)
	}
	for h := 0; h < hops && len(frontier) > 0; h++ {
		netSeen := make(map[int32]bool)
		var next []int
		for _, c := range frontier {
			for _, pi := range child.PinsOfCell(c) {
				e := child.Pins[pi].Net
				if netSeen[e] || child.NetDegree(int(e)) > maxExpandDegree {
					continue
				}
				netSeen[e] = true
				for _, p := range child.NetPins(int(e)) {
					ci := int(p.Cell)
					if !release[ci] && child.Cells[ci].Kind.Moves() {
						release[ci] = true
						next = append(next, ci)
					}
				}
			}
		}
		frontier = next
	}
	return release
}

// WarmPositions seeds the child's placement from the parent's: matched cells
// take the parent's final position, and added movable cells start at the
// centroid of their already-placed net neighbors (region center if none).
// parentX/parentY are the parent's final lower-left positions, indexed like
// the parent design.
func (dl *Delta) WarmPositions(parentX, parentY []float64, child *Design) {
	placed := make([]bool, len(child.Cells))
	for i, pi := range dl.CellMap {
		if pi < 0 || pi >= len(parentX) {
			continue
		}
		if child.Cells[i].Kind.Moves() {
			child.X[i] = parentX[pi]
			child.Y[i] = parentY[pi]
		}
		placed[i] = true
	}
	cx, cy := child.Region.Center().X, child.Region.Center().Y
	for _, i := range dl.AddedCells {
		if !child.Cells[i].Kind.Moves() {
			continue
		}
		var sx, sy float64
		var n int
		for _, pi := range child.PinsOfCell(i) {
			e := int(child.Pins[pi].Net)
			for _, p := range child.NetPins(e) {
				if c := int(p.Cell); c != i && placed[c] {
					sx += child.CenterX(c)
					sy += child.CenterY(c)
					n++
				}
			}
		}
		if n > 0 {
			child.SetCenter(i, sx/float64(n), sy/float64(n))
		} else {
			child.SetCenter(i, cx, cy)
		}
	}
	child.ClampToRegion()
}

// NetSubset returns a view of d containing only the nets with keep[e] true,
// with pins renumbered to the new net indices. The view SHARES d's Cells, X,
// and Y slices — positions written through either design are visible in both
// — so a partial-release engine can evaluate wirelength over just the active
// subgraph while moving the real cells. Rows, region, and density carry over.
func (d *Design) NetSubset(keep []bool) *Design {
	sub := &Design{
		Name:          d.Name,
		Cells:         d.Cells,
		X:             d.X,
		Y:             d.Y,
		Region:        d.Region,
		Rows:          d.Rows,
		TargetDensity: d.TargetDensity,
	}
	kept := 0
	pins := 0
	for e, k := range keep {
		if k {
			kept++
			pins += d.NetDegree(e)
		}
	}
	sub.Nets = make([]Net, 0, kept)
	sub.Pins = make([]Pin, 0, pins)
	sub.NetStart = make([]int32, 1, kept+1)
	for e, k := range keep {
		if !k {
			continue
		}
		ne := int32(len(sub.Nets))
		sub.Nets = append(sub.Nets, d.Nets[e])
		for _, p := range d.NetPins(e) {
			p.Net = ne
			sub.Pins = append(sub.Pins, p)
		}
		sub.NetStart = append(sub.NetStart, int32(len(sub.Pins)))
	}
	sub.indexCellPins()
	sub.PinLanes()
	return sub
}

// Perturbation parameterizes a deterministic synthetic ECO delta: resize a
// fraction of the movable standard cells and rewire a pin on a fraction of
// the small nets. Used by the load harness and the warm-start quality tests
// to generate realistic resubmissions.
type Perturbation struct {
	Seed int64
	// CellFrac is the fraction of movable standard cells to resize.
	CellFrac float64
	// NetFrac is the fraction of nets to rewire (one pin moves to a
	// different movable cell).
	NetFrac float64
}

// Perturb returns a perturbed deep copy of d (d itself is untouched). The
// result is rebuilt through Builder, so all CSR arrays and pin lanes are
// fresh and valid.
func Perturb(d *Design, pt Perturbation) (*Design, error) {
	if pt.CellFrac < 0 || pt.CellFrac > 1 || pt.NetFrac < 0 || pt.NetFrac > 1 {
		return nil, fmt.Errorf("netlist: perturbation fractions must be in [0,1]")
	}
	rng := rand.New(rand.NewSource(pt.Seed))

	cells := append([]Cell(nil), d.Cells...)
	var std []int
	for i, c := range cells {
		if c.Kind == Movable {
			std = append(std, i)
		}
	}
	nResize := int(float64(len(std))*pt.CellFrac + 0.5)
	if nResize > len(std) {
		nResize = len(std)
	}
	for _, k := range rng.Perm(len(std))[:nResize] {
		i := std[k]
		// A different width in the standard 1..4-site range; height stays
		// row-bound. Guaranteed to differ so the diff sees every resize.
		w := float64(1 + rng.Intn(4))
		for w == cells[i].W {
			w = float64(1 + rng.Intn(4))
		}
		cells[i].W = w
	}

	type netEdit struct{ pin, cell int } // pin index within the net -> new cell
	edits := make(map[int]netEdit)
	var movable []int
	for i, c := range cells {
		if c.Kind.Moves() {
			movable = append(movable, i)
		}
	}
	nRewire := int(float64(len(d.Nets))*pt.NetFrac + 0.5)
	if nRewire > len(d.Nets) {
		nRewire = len(d.Nets)
	}
	if len(movable) > 1 {
		for _, e := range rng.Perm(len(d.Nets))[:nRewire] {
			deg := d.NetDegree(e)
			if deg == 0 || deg > maxExpandDegree {
				continue
			}
			pins := d.NetPins(e)
			pi := rng.Intn(deg)
			on := make(map[int32]bool, deg)
			for _, p := range pins {
				on[p.Cell] = true
			}
			nc := movable[rng.Intn(len(movable))]
			for tries := 0; on[int32(nc)] && tries < 8; tries++ {
				nc = movable[rng.Intn(len(movable))]
			}
			if on[int32(nc)] {
				continue
			}
			edits[e] = netEdit{pin: pi, cell: nc}
		}
	}

	b := NewBuilder(d.Name)
	b.SetRegion(d.Region)
	b.SetTargetDensity(d.TargetDensity)
	for _, r := range d.Rows {
		b.AddRow(r)
	}
	for i, c := range cells {
		b.AddCell(c.Name, c.Kind, c.W, c.H, d.X[i], d.Y[i])
	}
	for e := range d.Nets {
		ne := b.AddNet(d.Nets[e].Name, d.Nets[e].Weight)
		ed, edited := edits[e]
		for k, p := range d.NetPins(e) {
			cell := int(p.Cell)
			dx, dy := p.Dx, p.Dy
			if edited && k == ed.pin {
				cell = ed.cell
				dx = rng.Float64() * cells[cell].W
				dy = rng.Float64() * cells[cell].H
			}
			b.AddPin(ne, cell, dx, dy)
		}
	}
	return b.Build()
}
