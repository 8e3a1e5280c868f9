package netlist

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
)

// ecoBase builds a small named design: 8 movable cells in a row region, one
// fixed block, and a handful of nets including one "clock-like" big net.
func ecoBase(t testing.TB) *Design {
	t.Helper()
	b := NewBuilder("eco")
	b.SetRegion(geom.Rect{XL: 0, YL: 0, XH: 20, YH: 20})
	b.SetTargetDensity(0.9)
	b.AddRow(Row{Y: 0, Height: 1, XL: 0, XH: 20, SiteW: 1})
	for i := 0; i < 8; i++ {
		b.AddCell(cellName(i), Movable, 2, 1, float64(2*i), 1)
	}
	b.AddCell("blk", Fixed, 3, 3, 10, 10)
	n0 := b.AddNet("n0", 1) // c0-c1
	b.AddPin(n0, 0, 0, 0)
	b.AddPin(n0, 1, 0, 0)
	n1 := b.AddNet("n1", 1) // c1-c2-c3
	b.AddPin(n1, 1, 1, 0)
	b.AddPin(n1, 2, 0, 0)
	b.AddPin(n1, 3, 0, 0)
	n2 := b.AddNet("n2", 2) // c4-c5, weighted
	b.AddPin(n2, 4, 0, 0)
	b.AddPin(n2, 5, 0, 0)
	n3 := b.AddNet("clk", 1) // big net over everything movable
	for i := 0; i < 8; i++ {
		b.AddPin(n3, i, 0.5, 0.5)
	}
	n4 := b.AddNet("n4", 1) // c6-c7-blk
	b.AddPin(n4, 6, 0, 0)
	b.AddPin(n4, 7, 0, 0)
	b.AddPin(n4, 8, 1, 1)
	return b.MustBuild()
}

func cellName(i int) string {
	return string(rune('a'+i)) + "cell"
}

// rebuild round-trips a design through the Builder applying edit callbacks.
type rebuildOpts struct {
	skipCell   map[int]bool
	editCell   func(i int, c *Cell)
	skipNet    map[int]bool
	editPin    func(e, k int, cell *int)
	extraCells func(b *Builder)
	extraNets  func(b *Builder)
}

func rebuild(t testing.TB, d *Design, o rebuildOpts) *Design {
	t.Helper()
	b := NewBuilder(d.Name)
	b.SetRegion(d.Region)
	b.SetTargetDensity(d.TargetDensity)
	for _, r := range d.Rows {
		b.AddRow(r)
	}
	kept := make([]int, 0, len(d.Cells))
	for i, c := range d.Cells {
		if o.skipCell[i] {
			kept = append(kept, -1)
			continue
		}
		cc := c
		if o.editCell != nil {
			o.editCell(i, &cc)
		}
		kept = append(kept, b.AddCell(cc.Name, cc.Kind, cc.W, cc.H, d.X[i], d.Y[i]))
	}
	if o.extraCells != nil {
		o.extraCells(b)
	}
	for e := range d.Nets {
		if o.skipNet[e] {
			continue
		}
		ne := b.AddNet(d.Nets[e].Name, d.Nets[e].Weight)
		for k, p := range d.NetPins(e) {
			cell := int(p.Cell)
			if o.editPin != nil {
				o.editPin(e, k, &cell)
			}
			if cell < 0 || kept[cell] < 0 {
				continue
			}
			b.AddPin(ne, kept[cell], p.Dx, p.Dy)
		}
	}
	if o.extraNets != nil {
		o.extraNets(b)
	}
	return b.MustBuild()
}

func TestDiffIdenticalDesignsIsEmpty(t *testing.T) {
	parent := ecoBase(t)
	child := rebuild(t, parent, rebuildOpts{})
	dl := Diff(parent, child)
	if !dl.Empty() {
		t.Fatalf("identical designs produced non-empty delta: %+v", dl)
	}
	if len(dl.Touched) != 0 {
		t.Fatalf("identical designs touched cells %v", dl.Touched)
	}
	if parent.ContentHash() != child.ContentHash() {
		t.Fatal("identical rebuilt design hashes differ")
	}
}

func TestDiffClassification(t *testing.T) {
	parent := ecoBase(t)
	child := rebuild(t, parent, rebuildOpts{
		editCell: func(i int, c *Cell) {
			if c.Name == cellName(4) {
				c.W = 4 // resize c4
			}
		},
		skipNet: map[int]bool{0: true}, // remove n0 (c0-c1)
		editPin: func(e, k int, cell *int) {
			if e == 1 && k == 2 { // n1: c3 -> c5
				*cell = 5
			}
		},
		extraCells: func(b *Builder) {
			b.AddCell("newcell", Movable, 1, 1, 0, 0)
		},
		extraNets: func(b *Builder) {
			// Wire the new cell to c7.
			ne := b.AddNet("nnew", 1)
			nc, _ := b.CellIndex("newcell")
			c7, _ := b.CellIndex(cellName(7))
			b.AddPin(ne, nc, 0, 0)
			b.AddPin(ne, c7, 0, 0)
		},
	})
	dl := Diff(parent, child)
	if len(dl.AddedCells) != 1 || child.Cells[dl.AddedCells[0]].Name != "newcell" {
		t.Fatalf("AddedCells = %v", dl.AddedCells)
	}
	if len(dl.ResizedCells) != 1 || child.Cells[dl.ResizedCells[0]].Name != cellName(4) {
		t.Fatalf("ResizedCells = %v", dl.ResizedCells)
	}
	if len(dl.RemovedCells) != 0 {
		t.Fatalf("RemovedCells = %v", dl.RemovedCells)
	}
	rewired := map[string]bool{}
	for _, e := range dl.RewiredNets {
		rewired[child.Nets[e].Name] = true
	}
	if !rewired["n1"] || !rewired["nnew"] || len(rewired) != 2 {
		t.Fatalf("RewiredNets = %v", rewired)
	}
	if len(dl.RemovedNets) != 1 || parent.Nets[dl.RemovedNets[0]].Name != "n0" {
		t.Fatalf("RemovedNets = %v", dl.RemovedNets)
	}
	// Touched: resized c4; rewired n1 pins (c1,c2,c5) + nnew (new cell, c7);
	// removed n0 pins (c0,c1).
	want := map[string]bool{
		cellName(0): true, cellName(1): true, cellName(2): true,
		cellName(4): true, cellName(5): true, cellName(7): true,
		"newcell": true,
	}
	got := map[string]bool{}
	for _, i := range dl.Touched {
		got[child.Cells[i].Name] = true
	}
	if len(got) != len(want) {
		t.Fatalf("Touched = %v, want %v", got, want)
	}
	for n := range want {
		if !got[n] {
			t.Fatalf("Touched missing %s (got %v)", n, got)
		}
	}
	if f := dl.TouchedFraction(child); f <= 0 || f > 1 {
		t.Fatalf("TouchedFraction = %g", f)
	}
}

func TestDiffMovedFixedTouchesNeighbors(t *testing.T) {
	parent := ecoBase(t)
	child := rebuild(t, parent, rebuildOpts{})
	blk, _ := 0, 0
	for i, c := range child.Cells {
		if c.Name == "blk" {
			blk = i
		}
	}
	child.X[blk] += 2
	dl := Diff(parent, child)
	if len(dl.MovedFixed) != 1 {
		t.Fatalf("MovedFixed = %v", dl.MovedFixed)
	}
	// n4 connects blk to c6 and c7, so both must be touched.
	got := map[string]bool{}
	for _, i := range dl.Touched {
		got[child.Cells[i].Name] = true
	}
	if !got[cellName(6)] || !got[cellName(7)] {
		t.Fatalf("moved fixed block did not touch its net neighbors: %v", got)
	}
}

func TestBlastRegionExpandsThroughSmallNetsOnly(t *testing.T) {
	parent := ecoBase(t)
	child := rebuild(t, parent, rebuildOpts{
		editCell: func(i int, c *Cell) {
			if c.Name == cellName(0) {
				c.W = 3
			}
		},
	})
	dl := Diff(parent, child)
	if len(dl.Touched) != 1 || child.Cells[dl.Touched[0]].Name != cellName(0) {
		t.Fatalf("Touched = %v", dl.Touched)
	}
	r0 := dl.BlastRegion(child, 0)
	if countTrue(r0) != 1 {
		t.Fatalf("hops=0 released %d cells", countTrue(r0))
	}
	r1 := dl.BlastRegion(child, 1)
	// One hop: c0 releases c1 via n0 (degree 2). The clk net (degree 8 <= 16)
	// also expands, releasing all 8 movable cells — but never the fixed block.
	if !r1[1] {
		t.Fatal("hop 1 did not release the n0 neighbor")
	}
	for i, rel := range r1 {
		if rel && !child.Cells[i].Kind.Moves() {
			t.Fatalf("released non-movable cell %s", child.Cells[i].Name)
		}
	}
}

func TestBlastRegionRespectsDegreeCap(t *testing.T) {
	// A star net of degree 20 (> maxExpandDegree) must not propagate.
	b := NewBuilder("star")
	b.SetRegion(geom.Rect{XL: 0, YL: 0, XH: 30, YH: 30})
	for i := 0; i < 21; i++ {
		b.AddCell(cellName(i%8)+string(rune('0'+i/8)), Movable, 1, 1, float64(i), 1)
	}
	big := b.AddNet("big", 1)
	for i := 0; i < 20; i++ {
		b.AddPin(big, i, 0, 0)
	}
	sm := b.AddNet("small", 1)
	b.AddPin(sm, 0, 0, 0)
	b.AddPin(sm, 20, 0, 0)
	d := b.MustBuild()
	dl := &Delta{Touched: []int{0}}
	r := dl.BlastRegion(d, 2)
	if !r[0] || !r[20] {
		t.Fatal("small net neighbor not released")
	}
	if countTrue(r) != 2 {
		t.Fatalf("big net leaked the blast region: released %d cells", countTrue(r))
	}
}

func TestWarmPositionsTransfersAndSeeds(t *testing.T) {
	parent := ecoBase(t)
	// Pretend the parent was placed: shift everything.
	px := append([]float64(nil), parent.X...)
	py := append([]float64(nil), parent.Y...)
	for i, c := range parent.Cells {
		if c.Kind.Moves() {
			px[i] += 3
			py[i] += 2
		}
	}
	child := rebuild(t, parent, rebuildOpts{
		extraCells: func(b *Builder) { b.AddCell("newcell", Movable, 1, 1, 0, 0) },
		extraNets: func(b *Builder) {
			ne := b.AddNet("nnew", 1)
			nc, _ := b.CellIndex("newcell")
			c0, _ := b.CellIndex(cellName(0))
			c1, _ := b.CellIndex(cellName(1))
			b.AddPin(ne, nc, 0, 0)
			b.AddPin(ne, c0, 0, 0)
			b.AddPin(ne, c1, 0, 0)
		},
	})
	dl := Diff(parent, child)
	dl.WarmPositions(px, py, child)
	for i, c := range child.Cells {
		if c.Name == "newcell" || !c.Kind.Moves() {
			continue
		}
		pi := dl.CellMap[i]
		if child.X[i] != px[pi] || child.Y[i] != py[pi] {
			t.Fatalf("cell %s did not take parent position", c.Name)
		}
	}
	nc := dl.AddedCells[0]
	// The new cell should sit near the centroid of c0 and c1, not at origin.
	wantX := (child.CenterX(0) + child.CenterX(1)) / 2
	wantY := (child.CenterY(0) + child.CenterY(1)) / 2
	if abs(child.CenterX(nc)-wantX) > 1e-9 || abs(child.CenterY(nc)-wantY) > 1e-9 {
		t.Fatalf("new cell at (%g,%g), want centroid (%g,%g)",
			child.CenterX(nc), child.CenterY(nc), wantX, wantY)
	}
}

func TestNetSubsetSharesPositionsAndSplitsHPWL(t *testing.T) {
	d := ecoBase(t)
	keep := make([]bool, d.NumNets())
	inv := make([]bool, d.NumNets())
	for e := range keep {
		keep[e] = e%2 == 0
		inv[e] = !keep[e]
	}
	sub := d.NetSubset(keep)
	rest := d.NetSubset(inv)
	if err := sub.Validate(); err != nil {
		t.Fatalf("subset invalid: %v", err)
	}
	if err := rest.Validate(); err != nil {
		t.Fatalf("complement invalid: %v", err)
	}
	total := hpwlOf(d)
	if got := hpwlOf(sub) + hpwlOf(rest); abs(got-total) > 1e-9 {
		t.Fatalf("subset HPWL split %g != total %g", got, total)
	}
	// Moving a cell through the parent must be visible in the subset view.
	d.X[0] += 5
	if sub.X[0] != d.X[0] {
		t.Fatal("subset does not share the position backing arrays")
	}
}

func TestPerturbDeterministicAndDiffable(t *testing.T) {
	base := ecoBase(t)
	p1, err := Perturb(base, Perturbation{Seed: 9, CellFrac: 0.25, NetFrac: 0.4})
	if err != nil {
		t.Fatalf("Perturb: %v", err)
	}
	p2, err := Perturb(base, Perturbation{Seed: 9, CellFrac: 0.25, NetFrac: 0.4})
	if err != nil {
		t.Fatalf("Perturb: %v", err)
	}
	if p1.ContentHash() != p2.ContentHash() {
		t.Fatal("Perturb is not deterministic")
	}
	if p1.ContentHash() == base.ContentHash() {
		t.Fatal("Perturb did not change the design")
	}
	if base.ContentHash() != ecoBase(t).ContentHash() {
		t.Fatal("Perturb mutated its input")
	}
	dl := Diff(base, p1)
	if dl.Empty() {
		t.Fatal("diff of perturbed design is empty")
	}
	if len(dl.AddedCells) != 0 || len(dl.RemovedCells) != 0 {
		t.Fatalf("perturb added/removed cells: %v %v", dl.AddedCells, dl.RemovedCells)
	}
	if _, err := Perturb(base, Perturbation{CellFrac: 2}); err == nil {
		t.Fatal("Perturb accepted CellFrac > 1")
	}
}

func TestPerturbSmallFractionStaysSmall(t *testing.T) {
	d := randomBigDesign(t)
	p, err := Perturb(d, Perturbation{Seed: 4, CellFrac: 0.01, NetFrac: 0.005})
	if err != nil {
		t.Fatalf("Perturb: %v", err)
	}
	dl := Diff(d, p)
	if f := dl.TouchedFraction(p); f == 0 || f > 0.05 {
		t.Fatalf("TouchedFraction = %g, want (0, 0.05]", f)
	}
}

// referenceNetSignature renders net e as the string Diff once compared:
// weight plus the sorted (mapped cell key, dx, dy) pin multiset. cellKey
// translates pin cell indices into the comparison space (parent indices when
// diffing child against parent).
func referenceNetSignature(d *Design, e int, cellKey func(int32) int) string {
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

// refCellKeys maps each cell name of d to its index. It reports false unless
// every cell has a unique non-empty name.
func refCellKeys(d *Design) (map[string]int, bool) {
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

// refUniqueNetNames reports whether every net has a unique non-empty name.
func refUniqueNetNames(d *Design) bool {
	seen := make(map[string]bool, len(d.Nets))
	for _, n := range d.Nets {
		if n.Name == "" || seen[n.Name] {
			return false
		}
		seen[n.Name] = true
	}
	return true
}

// referenceDiff recomputes the cell map of a delta by checking name
// uniqueness up front, the net half from string signatures given the cell
// half (CellMap, AddedCells, ResizedCells, MovedFixed) that Diff produced,
// and Touched from its definition with maps.
func referenceDiff(parent, child *Design, dl *Delta) (cellMap, rewired, removed, touched []int) {
	pByName, pok := refCellKeys(parent)
	_, cok := refCellKeys(child)
	cellMap = make([]int, len(child.Cells))
	for i, c := range child.Cells {
		cellMap[i] = -1
		if pok && cok {
			if j, ok := pByName[c.Name]; ok {
				cellMap[i] = j
			}
		} else if i < len(parent.Cells) {
			cellMap[i] = i
		}
	}
	parentOf := func(ci int32) int {
		if pi := dl.CellMap[ci]; pi >= 0 {
			return pi
		}
		return -1 - int(ci)
	}
	identity := func(ci int32) int { return int(ci) }
	netByName := pok && cok && refUniqueNetNames(parent) && refUniqueNetNames(child)
	parentNetIdx := map[string]int{}
	for e := range parent.Nets {
		parentNetIdx[parent.Nets[e].Name] = e
	}
	matched := map[int]bool{}
	for e := range child.Nets {
		pe := -1
		if netByName {
			if j, ok := parentNetIdx[child.Nets[e].Name]; ok {
				pe = j
			}
		} else if e < len(parent.Nets) {
			pe = e
		}
		if pe < 0 {
			rewired = append(rewired, e)
			continue
		}
		matched[pe] = true
		if referenceNetSignature(parent, pe, identity) != referenceNetSignature(child, e, parentOf) {
			rewired = append(rewired, e)
		}
	}
	for pe := range parent.Nets {
		if !matched[pe] {
			removed = append(removed, pe)
		}
	}

	mark := map[int]bool{}
	markMovable := func(ci int) {
		if child.Cells[ci].Kind.Moves() {
			mark[ci] = true
		}
	}
	disturbed := map[int]bool{}
	for _, ci := range dl.AddedCells {
		markMovable(ci)
	}
	for _, ci := range dl.ResizedCells {
		markMovable(ci)
		if !child.Cells[ci].Kind.Moves() {
			disturbed[ci] = true
		}
	}
	for _, ci := range dl.MovedFixed {
		disturbed[ci] = true
	}
	for e := range child.Nets {
		for _, p := range child.NetPins(e) {
			if disturbed[int(p.Cell)] {
				for _, q := range child.NetPins(e) {
					markMovable(int(q.Cell))
				}
				break
			}
		}
	}
	for _, e := range rewired {
		for _, p := range child.NetPins(e) {
			markMovable(int(p.Cell))
		}
	}
	for _, pe := range removed {
		for _, p := range parent.NetPins(pe) {
			for ci, pi := range dl.CellMap {
				if pi == int(p.Cell) {
					markMovable(ci)
				}
			}
		}
	}
	for ci := range mark {
		touched = append(touched, ci)
	}
	sort.Ints(touched)
	return cellMap, rewired, removed, touched
}

// ecoRandomDesign builds a random design for the reference comparison:
// movable, fixed and terminal cells, nets of 2-6 pins plus a few of 13-40,
// and pin offsets drawn from a small grid so several pins share a cell and
// an offset. Cell names are unique or all empty; net names are unique,
// duplicated, or all empty.
func ecoRandomDesign(t testing.TB, rng *rand.Rand, namedCells bool, netNames string) *Design {
	t.Helper()
	b := NewBuilder("ref")
	b.SetRegion(geom.Rect{XL: 0, YL: 0, XH: 50, YH: 50})
	b.AddRow(Row{Y: 0, Height: 1, XL: 0, XH: 50, SiteW: 1})
	nCells := 40 + rng.Intn(60)
	for i := 0; i < nCells; i++ {
		kind := Movable
		switch rng.Intn(10) {
		case 0:
			kind = Fixed
		case 1:
			kind = Terminal
		}
		name := ""
		if namedCells {
			name = fmt.Sprintf("c%d", i)
		}
		b.AddCell(name, kind, float64(1+rng.Intn(4)), 1, rng.Float64()*40, rng.Float64()*40)
	}
	nNets := 30 + rng.Intn(50)
	for e := 0; e < nNets; e++ {
		name := ""
		switch netNames {
		case "unique":
			name = fmt.Sprintf("n%d", e)
		case "dup":
			name = fmt.Sprintf("n%d", e%7)
		}
		w := 1.0
		if rng.Intn(4) == 0 {
			w = 0.5 + rng.Float64()
		}
		ne := b.AddNet(name, w)
		deg := 2 + rng.Intn(5)
		if rng.Intn(8) == 0 {
			deg = 13 + rng.Intn(28)
		}
		for k := 0; k < deg; k++ {
			b.AddPin(ne, rng.Intn(nCells), 0.25*float64(1+rng.Intn(4)), 0.25*float64(1+rng.Intn(4)))
		}
	}
	return b.MustBuild()
}

// ecoEdit derives an edited copy of d beyond what Perturb produces: pins of
// every net shuffled (no semantic change), one net dropped, one reweighed,
// one pin moved on every large net, one cell removed, some fixed cells
// moved, and one cell added on a new net.
func ecoEdit(t testing.TB, rng *rand.Rand, d *Design) *Design {
	t.Helper()
	b := NewBuilder(d.Name)
	b.SetRegion(d.Region)
	for _, r := range d.Rows {
		b.AddRow(r)
	}
	drop := rng.Intn(len(d.Cells))
	idx := make([]int, len(d.Cells))
	for i, c := range d.Cells {
		if i == drop {
			idx[i] = -1
			continue
		}
		x := d.X[i]
		if !c.Kind.Moves() && rng.Intn(4) == 0 {
			x++
		}
		idx[i] = b.AddCell(c.Name, c.Kind, c.W, c.H, x, d.Y[i])
	}
	name := ""
	if d.Cells[0].Name != "" {
		name = "added"
	}
	added := b.AddCell(name, Movable, 2, 1, 0, 0)
	skipNet, reweigh := rng.Intn(len(d.Nets)), rng.Intn(len(d.Nets))
	for e := range d.Nets {
		if e == skipNet {
			continue
		}
		w := d.Nets[e].Weight
		if e == reweigh {
			w *= 2
		}
		ne := b.AddNet(d.Nets[e].Name, w)
		pins := d.NetPins(e)
		for _, k := range rng.Perm(len(pins)) {
			p := pins[k]
			if idx[p.Cell] < 0 {
				continue
			}
			dx := p.Dx
			if len(pins) > maxExpandDegree && k == 0 {
				dx += 0.5
			}
			b.AddPin(ne, idx[p.Cell], dx, p.Dy)
		}
	}
	ne := b.AddNet(d.Nets[0].Name+"x", 1)
	b.AddPin(ne, added, 0.5, 0.5)
	b.AddPin(ne, idx[(drop+1)%len(d.Cells)], 0.5, 0.5)
	return b.MustBuild()
}

// ecoDupChild rebuilds d with two new cells (dupCells) or two new nets that
// share a name d lacks, placed before d's own cells or nets so that name and
// index matching pair the rest differently. Diff must match the duplicated
// kind by index.
func ecoDupChild(t testing.TB, d *Design, dupCells bool) *Design {
	t.Helper()
	b := NewBuilder(d.Name)
	b.SetRegion(d.Region)
	for _, r := range d.Rows {
		b.AddRow(r)
	}
	off := 0
	if dupCells {
		b.AddCell("dup", Movable, 1, 1, 0, 0)
		b.AddCell("dup", Movable, 2, 1, 0, 0)
		off = 2
	}
	for i, c := range d.Cells {
		b.AddCell(c.Name, c.Kind, c.W, c.H, d.X[i], d.Y[i])
	}
	if !dupCells {
		for k := 0; k < 2; k++ {
			ne := b.AddNet("dup", 1)
			b.AddPin(ne, k, 0.5, 0.5)
			b.AddPin(ne, k+1, 0.5, 0.5)
		}
	}
	for e := range d.Nets {
		ne := b.AddNet(d.Nets[e].Name, d.Nets[e].Weight)
		for _, p := range d.NetPins(e) {
			b.AddPin(ne, int(p.Cell)+off, p.Dx, p.Dy)
		}
	}
	return b.MustBuild()
}

// TestDiffMatchesSignatureReference holds Diff's cell map and net comparison
// to the reference above, in both directions, over named and unnamed cells,
// unique, duplicated and empty net names, nets of up to 40 pins, Perturb
// children at several strengths, structural edits, and children that
// duplicate a cell or net name the parent lacks.
func TestDiffMatchesSignatureReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checks := 0
	for trial := 0; trial < 24; trial++ {
		named := trial%2 == 0
		netNames := []string{"unique", "dup", ""}[trial/2%3]
		d := ecoRandomDesign(t, rng, named, netNames)
		var children []*Design
		for _, f := range []float64{0.01, 0.05, 0.5} {
			c, err := Perturb(d, Perturbation{Seed: rng.Int63(), CellFrac: f, NetFrac: f})
			if err != nil {
				t.Fatal(err)
			}
			children = append(children, c)
		}
		children = append(children, ecoEdit(t, rng, d), ecoEdit(t, rng, children[1]),
			ecoDupChild(t, d, true), ecoDupChild(t, d, false))
		for ci, c := range children {
			for _, pair := range [][2]*Design{{d, c}, {c, d}} {
				p, ch := pair[0], pair[1]
				dl := Diff(p, ch)
				cellMap, rewired, removed, touched := referenceDiff(p, ch, dl)
				if !slices.Equal(dl.CellMap, cellMap) {
					t.Fatalf("trial %d child %d (named %v, nets %q): CellMap disagrees with the reference:\n got  %v\n want %v",
						trial, ci, named, netNames, dl.CellMap, cellMap)
				}
				if !slices.Equal(dl.RewiredNets, rewired) || !slices.Equal(dl.RemovedNets, removed) || !slices.Equal(dl.Touched, touched) {
					t.Fatalf("trial %d child %d (named %v, nets %q): Diff disagrees with the reference:\n rewired %v\n    want %v\n removed %v\n    want %v\n touched %v\n    want %v",
						trial, ci, named, netNames, dl.RewiredNets, rewired, dl.RemovedNets, removed, dl.Touched, touched)
				}
				checks++
			}
		}
	}
	t.Logf("%d diffs match the reference", checks)
}

// randomBigDesign builds a ~600-cell named design for fraction statistics.
func randomBigDesign(t testing.TB) *Design {
	t.Helper()
	b := NewBuilder("big")
	b.SetRegion(geom.Rect{XL: 0, YL: 0, XH: 60, YH: 60})
	n := 600
	for i := 0; i < n; i++ {
		b.AddCell(cellName(i%8)+string(rune('0'+i/8%10))+string(rune('0'+i/80)), Movable, 1+float64(i%3), 1, float64(i%60), float64(i/60))
	}
	for e := 0; e < 650; e++ {
		ne := b.AddNet("net"+string(rune('0'+e%10))+string(rune('0'+e/10%10))+string(rune('0'+e/100)), 1)
		base := (e * 7) % n
		deg := 2 + e%3
		for k := 0; k < deg; k++ {
			b.AddPin(ne, (base+k*3)%n, 0, 0)
		}
	}
	return b.MustBuild()
}

func countTrue(v []bool) int {
	n := 0
	for _, b := range v {
		if b {
			n++
		}
	}
	return n
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func hpwlOf(d *Design) float64 {
	total := 0.0
	for e := range d.Nets {
		pins := d.NetPins(e)
		if len(pins) == 0 {
			continue
		}
		xs := make([]float64, len(pins))
		ys := make([]float64, len(pins))
		for i, p := range pins {
			xs[i] = d.X[p.Cell] + p.Dx
			ys[i] = d.Y[p.Cell] + p.Dy
		}
		sort.Float64s(xs)
		sort.Float64s(ys)
		total += d.Nets[e].Weight * (xs[len(xs)-1] - xs[0] + ys[len(ys)-1] - ys[0])
	}
	return total
}
