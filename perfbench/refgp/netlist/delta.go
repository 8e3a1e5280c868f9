package netlist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// cellKey identifies a cell across the two designs: by name when every cell
// in both designs has a unique non-empty name (the normal case for generated
// and Bookshelf designs), by index otherwise.
func cellKeys(d *Design) (map[string]int, bool) {
	m := make(map[string]int, len(d.Cells))
	for i, c := range d.Cells {
		if c.Name == "" {
			return nil, false
		}
		if _, dup := m[c.Name]; dup {
			return nil, false
		}
		m[c.Name] = i
	}
	return m, true
}

// Diff computes the structural delta from parent to child. Cells and nets
// are matched by name when names are unique and non-empty on both sides,
// falling back to index matching otherwise.
func Diff(parent, child *Design) *Delta {
	dl := &Delta{CellMap: make([]int, len(child.Cells))}

	pByName, pok := cellKeys(parent)
	_, cok := cellKeys(child)
	byName := pok && cok
	parentMatched := make([]bool, len(parent.Cells))
	for i, c := range child.Cells {
		pi := -1
		if byName {
			if j, ok := pByName[c.Name]; ok {
				pi = j
			}
		} else if i < len(parent.Cells) {
			pi = i
		}
		dl.CellMap[i] = pi
		if pi < 0 {
			dl.AddedCells = append(dl.AddedCells, i)
			continue
		}
		parentMatched[pi] = true
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

	// parentOf maps a child cell index to the key used in net signatures:
	// the parent index when matched, or a negative synthetic key for added
	// cells (which can never appear in any parent net signature).
	parentOf := func(ci int32) int {
		if pi := dl.CellMap[ci]; pi >= 0 {
			return pi
		}
		return -1 - int(ci)
	}

	// Net signatures: weight plus the (parent-keyed cell, dx, dy) pin
	// multiset. Matched by name when possible, by index otherwise.
	identity := func(ci int32) int { return int(ci) }
	netByName := byName && uniqueNetNames(parent) && uniqueNetNames(child)
	parentNetIdx := make(map[string]int, len(parent.Nets))
	if netByName {
		for e := range parent.Nets {
			parentNetIdx[parent.Nets[e].Name] = e
		}
	}
	childMatchedParentNet := make([]bool, len(parent.Nets))
	for e := range child.Nets {
		sig := netSignature(child, e, parentOf)
		pe := -1
		if netByName {
			if j, ok := parentNetIdx[child.Nets[e].Name]; ok {
				pe = j
			}
		} else if e < len(parent.Nets) {
			pe = e
		}
		if pe < 0 {
			dl.RewiredNets = append(dl.RewiredNets, e)
			continue
		}
		childMatchedParentNet[pe] = true
		if netSignature(parent, pe, identity) != sig {
			dl.RewiredNets = append(dl.RewiredNets, e)
		}
	}
	for pe, ok := range childMatchedParentNet {
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
	disturbed := make(map[int]bool)
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
	// Transposed cell -> pin index (counting sort by cell), as in Build.
	n := len(sub.Cells)
	sub.CellPinStart = make([]int32, n+1)
	for _, p := range sub.Pins {
		sub.CellPinStart[p.Cell+1]++
	}
	for c := 0; c < n; c++ {
		sub.CellPinStart[c+1] += sub.CellPinStart[c]
	}
	sub.CellPins = make([]int32, len(sub.Pins))
	fill := make([]int32, n)
	for pi, p := range sub.Pins {
		c := p.Cell
		sub.CellPins[sub.CellPinStart[c]+fill[c]] = int32(pi)
		fill[c]++
	}
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

// uniqueNetNames reports whether every net has a unique non-empty name.
func uniqueNetNames(d *Design) bool {
	seen := make(map[string]bool, len(d.Nets))
	for _, n := range d.Nets {
		if n.Name == "" || seen[n.Name] {
			return false
		}
		seen[n.Name] = true
	}
	return true
}

// netSignature renders net e's semantic content as a comparable string:
// weight plus the sorted (mapped cell key, dx, dy) pin multiset. cellKey
// translates pin cell indices into the comparison space (parent indices when
// diffing child against parent).
func netSignature(d *Design, e int, cellKey func(int32) int) string {
	pins := d.NetPins(e)
	type sigPin struct {
		cell   int
		dx, dy float64
	}
	sp := make([]sigPin, len(pins))
	for i, p := range pins {
		sp[i] = sigPin{cell: cellKey(p.Cell), dx: p.Dx, dy: p.Dy}
	}
	sort.Slice(sp, func(a, b int) bool {
		if sp[a].cell != sp[b].cell {
			return sp[a].cell < sp[b].cell
		}
		if sp[a].dx != sp[b].dx {
			return sp[a].dx < sp[b].dx
		}
		return sp[a].dy < sp[b].dy
	})
	var sb []byte
	sb = append(sb, fmt.Sprintf("w%x", math.Float64bits(d.Nets[e].Weight))...)
	for _, p := range sp {
		sb = append(sb, fmt.Sprintf("|%d:%x:%x", p.cell, math.Float64bits(p.dx), math.Float64bits(p.dy))...)
	}
	return string(sb)
}
