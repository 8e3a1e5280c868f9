package netlist_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// randomDesign builds a deterministic random design: a few fixed blocks and
// pads, movable cells with varied widths, and nets of mixed degree with
// non-uniform weights, exercising every field the content hash covers.
func randomDesign(t testing.TB, seed int64) *netlist.Design {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder("rand")
	b.SetRegion(geom.Rect{XL: 0, YL: 0, XH: 40, YH: 40})
	b.SetTargetDensity(0.8 + 0.2*rng.Float64())
	for r := 0; r < 4; r++ {
		b.AddRow(netlist.Row{Y: float64(r), Height: 1, XL: 0, XH: 40, SiteW: 1})
	}
	nCells := 12 + rng.Intn(20)
	for i := 0; i < nCells; i++ {
		kind := netlist.Movable
		switch {
		case i%11 == 10:
			kind = netlist.Fixed
		case i%7 == 6:
			kind = netlist.Terminal
		case i%13 == 12:
			kind = netlist.MovableMacro
		}
		w := float64(1 + rng.Intn(4))
		h := 1.0
		if kind == netlist.MovableMacro {
			w, h = 4, 4
		}
		b.AddCell("", kind, w, h, rng.Float64()*30, rng.Float64()*30)
	}
	nNets := 8 + rng.Intn(16)
	for e := 0; e < nNets; e++ {
		w := 1.0
		if rng.Intn(3) == 0 {
			w = 0.5 + rng.Float64()
		}
		ne := b.AddNet("", w)
		deg := 2 + rng.Intn(5)
		for k := 0; k < deg; k++ {
			c := rng.Intn(nCells)
			b.AddPin(ne, c, rng.Float64(), rng.Float64())
		}
	}
	d, err := b.Build()
	if err != nil {
		t.Fatalf("randomDesign(%d): %v", seed, err)
	}
	return d
}

// permuteNetsAndPins rebuilds d with the net declaration order and the pin
// order within every net shuffled; cells stay in index order. The result is
// the same placement problem, so its content hash must not change.
func permuteNetsAndPins(t testing.TB, d *netlist.Design, seed int64) *netlist.Design {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder(d.Name)
	b.SetRegion(d.Region)
	b.SetTargetDensity(d.TargetDensity)
	for _, r := range d.Rows {
		b.AddRow(r)
	}
	for i, c := range d.Cells {
		b.AddCell(c.Name, c.Kind, c.W, c.H, d.X[i], d.Y[i])
	}
	for _, e := range rng.Perm(len(d.Nets)) {
		ne := b.AddNet(d.Nets[e].Name, d.Nets[e].Weight)
		pins := d.NetPins(e)
		for _, k := range rng.Perm(len(pins)) {
			p := pins[k]
			b.AddPin(ne, int(p.Cell), p.Dx, p.Dy)
		}
	}
	out, err := b.Build()
	if err != nil {
		t.Fatalf("permute: %v", err)
	}
	return out
}

// ecoPair builds a serve_eco-shaped design of the given size (the synthetic
// spec the benchmark's service workload submits) and its 1% ECO child.
func ecoPair(t testing.TB, cells int) (parent, child *netlist.Design) {
	t.Helper()
	parent, err := synth.Generate(synth.Spec{
		Name: "eco-000", NumMovable: cells, NumPads: 8, NumNets: cells + cells/10,
		AvgDegree: 3.9, Utilization: 0.7, TargetDensity: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	child, err = netlist.Perturb(parent, netlist.Perturbation{CellFrac: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	return parent, child
}

// goldenDesign is a small hand-built design covering every field the hash
// reads: rows, a fixed cell, a terminal, non-unit net weights, several pins
// on one cell (one pair of them identical), and one net over 12 pins.
func goldenDesign(t testing.TB) *netlist.Design {
	t.Helper()
	b := netlist.NewBuilder("golden")
	b.SetRegion(geom.Rect{XL: 0, YL: 0, XH: 16, YH: 8})
	b.SetTargetDensity(0.85)
	for r := 0; r < 4; r++ {
		b.AddRow(netlist.Row{Y: float64(2 * r), Height: 2, XL: 0, XH: 16, SiteW: 0.5})
	}
	for i := 0; i < 12; i++ {
		b.AddCell(fmt.Sprintf("c%d", i), netlist.Movable, 1+float64(i%3), 2, float64(i), float64(2*(i%4)))
	}
	blk := b.AddCell("blk", netlist.Fixed, 3, 4, 12.5, 2)
	pad := b.AddCell("pad", netlist.Terminal, 0, 0, 16, 4)
	n0 := b.AddNet("n0", 1)
	b.AddPin(n0, 0, 0.5, 1)
	b.AddPin(n0, blk, 1.5, 2)
	b.AddPin(n0, 0, 0.25, 1)
	b.AddPin(n0, 0, 0.5, 1)
	n1 := b.AddNet("n1", 2.5)
	b.AddPin(n1, 3, 0.5, 1)
	b.AddPin(n1, 5, 0, 0)
	b.AddPin(n1, pad, 0, 0)
	big := b.AddNet("big", 0.75)
	for i := 11; i >= 0; i-- {
		b.AddPin(big, i, 0.125*float64(i), 1)
	}
	return b.MustBuild()
}

// TestContentHashGolden pins the hash values themselves: they key the
// on-disk result cache, so a change to the canonical encoding would orphan
// every cached placement.
func TestContentHashGolden(t *testing.T) {
	parent, child := ecoPair(t, 1000)
	for _, tc := range []struct {
		name string
		d    *netlist.Design
		want string
	}{
		{"hand-built", goldenDesign(t), "c869543355c3f5b147f9aa7ac8d4e621770a24a027f1236c6d96f9405d710035"},
		{"serve_eco 1000 cells", parent, "0b2c8ec4efb931fc3544221d87fc74af949171591382e1101e9957ba555070de"},
		{"serve_eco 1% child", child, "ec2eaaf81554eb1da3bd7ffcb641f59301945bee722be976e628b341d570ccdd"},
	} {
		if got := tc.d.ContentHash().String(); got != tc.want {
			t.Errorf("%s: ContentHash = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestContentHashSignedZeroPinOrder: two pins on one cell whose offsets are
// equal as numbers but differ in sign bit (+0 and -0) are still two distinct
// encodings, so their order within the net must be fixed by the bits, not by
// declaration order.
func TestContentHashSignedZeroPinOrder(t *testing.T) {
	build := func(order [2]float64) *netlist.Design {
		b := netlist.NewBuilder("zero")
		b.SetRegion(geom.Rect{XL: 0, YL: 0, XH: 8, YH: 8})
		a := b.AddCell("a", netlist.Movable, 2, 1, 0, 0)
		c := b.AddCell("b", netlist.Movable, 2, 1, 4, 0)
		ne := b.AddNet("n", 1)
		b.AddPin(ne, a, order[0], 0.5)
		b.AddPin(ne, a, order[1], 0.5)
		b.AddPin(ne, c, 1, 0.5)
		return b.MustBuild()
	}
	negZero := math.Copysign(0, -1)
	d1 := build([2]float64{0, negZero})
	d2 := build([2]float64{negZero, 0})
	if d1.ContentHash() != d2.ContentHash() {
		t.Error("swapping a +0/-0 pin pair changed the content hash")
	}
	if dl := netlist.Diff(d1, d2); len(dl.RewiredNets) != 0 {
		t.Errorf("swapping a +0/-0 pin pair rewired nets %v", dl.RewiredNets)
	}
}

func TestContentHashPermutationInvariance(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		d := randomDesign(t, seed)
		h := d.ContentHash()
		for ps := int64(100); ps < 103; ps++ {
			p := permuteNetsAndPins(t, d, ps)
			if got := p.ContentHash(); got != h {
				t.Fatalf("seed %d perm %d: hash changed under net/pin permutation:\n  %s\n  %s", seed, ps, h, got)
			}
		}
	}
}

func TestContentHashIgnoresMovablePositionsAndNames(t *testing.T) {
	d := randomDesign(t, 3)
	h := d.ContentHash()
	moved := d.Clone()
	for i, c := range moved.Cells {
		if c.Kind.Moves() {
			moved.X[i] += 1.5
			moved.Y[i] += 0.5
		}
	}
	if moved.ContentHash() != h {
		t.Fatal("hash changed when only movable cell positions moved")
	}
	renamed := d.Clone()
	renamed.Name = "other"
	for i := range renamed.Cells {
		renamed.Cells[i].Name = "x" + renamed.Cells[i].Name
	}
	if renamed.ContentHash() != h {
		t.Fatal("hash changed under non-semantic renames")
	}
}

func TestContentHashChangesUnderSemanticEdits(t *testing.T) {
	base := randomDesign(t, 5)
	h := base.ContentHash()
	fixedIdx := -1
	for i, c := range base.Cells {
		if !c.Kind.Moves() {
			fixedIdx = i
			break
		}
	}
	edits := map[string]func(d *netlist.Design){
		"net weight":     func(d *netlist.Design) { d.Nets[0].Weight *= 2 },
		"pin offset":     func(d *netlist.Design) { d.Pins[0].Dx += 0.25 },
		"pin cell":       func(d *netlist.Design) { d.Pins[0].Cell = (d.Pins[0].Cell + 1) % int32(len(d.Cells)) },
		"cell width":     func(d *netlist.Design) { d.Cells[1].W += 1 },
		"cell kind":      func(d *netlist.Design) { d.Cells[1].Kind = netlist.MovableMacro },
		"fixed position": func(d *netlist.Design) { d.X[fixedIdx] += 2 },
		"region":         func(d *netlist.Design) { d.Region.XH += 1 },
		"target density": func(d *netlist.Design) { d.TargetDensity *= 0.9 },
		"row":            func(d *netlist.Design) { d.Rows[0].SiteW = 2 },
		"drop net": func(d *netlist.Design) {
			d.Nets = d.Nets[:len(d.Nets)-1]
			d.Pins = d.Pins[:d.NetStart[len(d.Nets)]]
			d.NetStart = d.NetStart[:len(d.Nets)+1]
		},
	}
	if fixedIdx < 0 {
		delete(edits, "fixed position")
	}
	for name, edit := range edits {
		d := base.Clone()
		edit(d)
		if d.ContentHash() == h {
			t.Errorf("edit %q did not change the content hash", name)
		}
	}
}

func TestHashRoundTrip(t *testing.T) {
	h := randomDesign(t, 7).ContentHash()
	if h.IsZero() {
		t.Fatal("content hash is zero")
	}
	parsed, err := netlist.ParseHash(h.String())
	if err != nil {
		t.Fatalf("ParseHash: %v", err)
	}
	if parsed != h {
		t.Fatalf("round trip mismatch: %s vs %s", parsed, h)
	}
	if _, err := netlist.ParseHash("zz"); err == nil {
		t.Fatal("ParseHash accepted garbage")
	}
}

// TestContentHashAllocs: the hash reuses its buffers, so its allocation
// count does not grow with the design.
func TestContentHashAllocs(t *testing.T) {
	small, _ := ecoPair(t, 1000)
	large, _ := ecoPair(t, 4000)
	a1 := testing.AllocsPerRun(5, func() { small.ContentHash() })
	a4 := testing.AllocsPerRun(5, func() { large.ContentHash() })
	if a1 != a4 {
		t.Errorf("ContentHash allocates %v times at 1000 cells and %v at 4000", a1, a4)
	}
}

// TestDiffAllocs bounds the allocations of one ECO diff: per-net or per-pin
// allocations would cost thousands on this pair.
func TestDiffAllocs(t *testing.T) {
	parent, child := ecoPair(t, 1000)
	if n := testing.AllocsPerRun(5, func() { netlist.Diff(parent, child) }); n > 200 {
		t.Errorf("Diff allocates %v times on a 1000-cell ECO pair, want at most 200", n)
	}
}

var sinkHash netlist.Hash

func BenchmarkContentHash(b *testing.B) {
	d, _ := ecoPair(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkHash = d.ContentHash()
	}
}

var sinkDelta *netlist.Delta

func BenchmarkDiff(b *testing.B) {
	parent, child := ecoPair(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDelta = netlist.Diff(parent, child)
	}
}

// FuzzContentHashInvariance fuzzes the canonicality property: for any
// generated design and any permutation of its net/pin declaration order, the
// content hash is unchanged; and flipping one net weight always changes it.
func FuzzContentHashInvariance(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(42), int64(1337))
	f.Add(int64(-9), int64(0))
	f.Fuzz(func(t *testing.T, genSeed, permSeed int64) {
		d := randomDesign(t, genSeed)
		h := d.ContentHash()
		p := permuteNetsAndPins(t, d, permSeed)
		if p.ContentHash() != h {
			t.Fatalf("hash not permutation-invariant (gen %d, perm %d)", genSeed, permSeed)
		}
		edited := d.Clone()
		edited.Nets[int(uint64(permSeed)%uint64(len(edited.Nets)))].Weight += 1
		if edited.ContentHash() == h {
			t.Fatalf("hash ignored a net weight edit (gen %d)", genSeed)
		}
	})
}
