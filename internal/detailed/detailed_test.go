package detailed

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/legalize"
	"repro/internal/netlist"
	"repro/internal/placer"
	"repro/internal/synth"
	"repro/internal/wirelength"
)

// legalDesign returns a small design after GP + Abacus legalization.
func legalDesign(t testing.TB, cells, macros int, seed int64) *netlist.Design {
	t.Helper()
	spec := synth.Spec{
		Name:           "dp-test",
		NumMovable:     cells,
		NumMacros:      macros,
		NumPads:        8,
		NumFixedBlocks: 2,
		NumNets:        cells + cells/8,
		AvgDegree:      3.8,
		Utilization:    0.6,
		TargetDensity:  1.0,
		Seed:           seed,
	}
	d, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := wirelength.ByName("WA")
	cfg := placer.DefaultConfig(m)
	cfg.MaxIters = 250
	cfg.StopOverflow = 0.18
	if _, err := placer.Place(d, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := legalize.Abacus(d, legalize.Options{}); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDetailedImprovesHPWLAndStaysLegal(t *testing.T) {
	d := legalDesign(t, 400, 0, 3)
	res, err := Place(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL > res.StartHPWL {
		t.Errorf("detailed placement worsened HPWL: %g -> %g", res.StartHPWL, res.HPWL)
	}
	if res.Moves+res.Swaps+res.Reorders == 0 {
		t.Error("no moves accepted at all; suspicious")
	}
	if err := legalize.CheckLegal(d); err != nil {
		t.Fatalf("detailed placement output illegal: %v", err)
	}
}

func TestDetailedWithMacros(t *testing.T) {
	d := legalDesign(t, 300, 2, 4)
	if _, err := Place(d, Options{Passes: 2}); err != nil {
		t.Fatal(err)
	}
	if err := legalize.CheckLegal(d); err != nil {
		t.Fatalf("illegal with macros: %v", err)
	}
}

func TestDetailedRequiresLegalInput(t *testing.T) {
	d := legalDesign(t, 100, 0, 5)
	mov := d.MovableIndices()
	d.Y[mov[0]] += 0.37 // knock a cell off its row
	if _, err := Place(d, Options{}); err == nil {
		t.Error("off-row input accepted")
	}
	d2 := legalDesign(t, 100, 0, 6)
	d2.Rows = nil
	if _, err := Place(d2, Options{}); err == nil {
		t.Error("rowless input accepted")
	}
}

func TestDetailedDeterministic(t *testing.T) {
	d1 := legalDesign(t, 200, 0, 7)
	d2 := d1.Clone()
	r1, err := Place(d1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Place(d2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.HPWL != r2.HPWL {
		t.Errorf("nondeterministic: %g vs %g", r1.HPWL, r2.HPWL)
	}
	for i := range d1.X {
		if d1.X[i] != d2.X[i] || d1.Y[i] != d2.Y[i] {
			t.Fatalf("positions differ at %d", i)
		}
	}
}

func TestDetailedIdempotentAfterConvergence(t *testing.T) {
	d := legalDesign(t, 200, 0, 8)
	if _, err := Place(d, Options{Passes: 6}); err != nil {
		t.Fatal(err)
	}
	res2, err := Place(d, Options{Passes: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A second run on converged output should find little or nothing.
	if res2.HPWL > res2.StartHPWL {
		t.Errorf("second run worsened HPWL: %g -> %g", res2.StartHPWL, res2.HPWL)
	}
}

func TestPermutations(t *testing.T) {
	p3 := permutations(3)
	if len(p3) != 6 {
		t.Fatalf("3! = %d", len(p3))
	}
	// First must be the identity (skipped by the reorder pass).
	id := p3[0]
	for i, v := range id {
		if v != i {
			t.Fatalf("permutation 0 is %v, want identity", id)
		}
	}
	seen := map[[3]int]bool{}
	for _, p := range p3 {
		var k [3]int
		copy(k[:], p)
		if seen[k] {
			t.Fatalf("duplicate permutation %v", p)
		}
		seen[k] = true
	}
}

func TestWindowSizeBounds(t *testing.T) {
	d := legalDesign(t, 150, 0, 9)
	// Window of 5 is the cap; 99 must be clamped, not explode.
	if _, err := Place(d, Options{WindowSize: 99, Passes: 1}); err != nil {
		t.Fatal(err)
	}
	if err := legalize.CheckLegal(d); err != nil {
		t.Fatal(err)
	}
}

// TestHpwlDeltaMatchesRecompute checks hpwlDelta against a full TotalHPWL
// recompute for each kind of candidate the passes evaluate: one cell moved
// in x, an equal-width swap of two cells on one net, reorder windows of 2 to
// 5 cells that share a net, and a move to another row.
func TestHpwlDeltaMatchesRecompute(t *testing.T) {
	d := legalDesign(t, 150, 0, 10)
	st, err := buildState(d)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, cells []int32, newX, newY []float64) {
		t.Helper()
		before := wirelength.TotalHPWL(d)
		delta := st.hpwlDelta(cells, newX, newY)
		oldX, oldY := append([]float64(nil), d.X...), append([]float64(nil), d.Y...)
		for i, c := range cells {
			d.X[c], d.Y[c] = newX[i], newY[i]
		}
		after := wirelength.TotalHPWL(d)
		copy(d.X, oldX)
		copy(d.Y, oldY)
		if math.Abs((after-before)-delta) > 1e-9 {
			t.Errorf("%s: hpwlDelta %g != recompute %g", name, delta, after-before)
		}
	}

	mov := d.MovableIndices()
	c := int32(mov[3])
	check("shift", []int32{c}, []float64{d.X[c] + 2.5}, []float64{d.Y[c]})

	// An equal-width swap of two cells on one net, in different rows.
	swapped := false
	for e := 0; e < d.NumNets() && !swapped; e++ {
		pins := d.NetPins(e)
		for a := 0; a < len(pins) && !swapped; a++ {
			for b := a + 1; b < len(pins) && !swapped; b++ {
				ca, cb := pins[a].Cell, pins[b].Cell
				if ca == cb || st.rowOf[ca] < 0 || st.rowOf[cb] < 0 ||
					st.rowOf[ca] == st.rowOf[cb] || d.Cells[ca].W != d.Cells[cb].W {
					continue
				}
				check("swap", []int32{ca, cb}, []float64{d.X[cb], d.X[ca]}, []float64{d.Y[cb], d.Y[ca]})
				swapped = true
			}
		}
	}
	if !swapped {
		t.Fatal("no equal-width pair on a net across rows")
	}

	// Reorder windows: n consecutive cells of a row, two of them on one
	// net, packed from the left edge in reverse order.
	for n := 2; n <= maxWindow; n++ {
		found := false
		for ri := 0; ri < len(st.rows) && !found; ri++ {
			items := st.rows[ri].items
			for start := 0; start+n <= len(items) && !found; start++ {
				win := make([]int32, n)
				for j := range win {
					win[j] = items[start+j].cell
				}
				if slices.Contains(win, -1) || !shareNet(d, win) {
					continue
				}
				ordered := make([]int32, n)
				xs, ys := make([]float64, n), make([]float64, n)
				x := items[start].x
				for j := range ordered {
					ordered[j] = win[n-1-j]
					xs[j], ys[j] = x, st.rows[ri].y
					x += d.Cells[ordered[j]].W
				}
				check(fmt.Sprintf("reorder window %d", n), ordered, xs, ys)
				found = true
			}
		}
		if !found {
			t.Fatalf("no %d-cell window sharing a net", n)
		}
	}

	// A move to another row.
	other := &st.rows[(int(st.rowOf[c])+2)%len(st.rows)]
	check("row change", []int32{c}, []float64{(other.xl + other.xh) / 2}, []float64{other.y})
}

// shareNet reports whether two of cells sit on one net.
func shareNet(d *netlist.Design, cells []int32) bool {
	seen := map[int32]int32{} // net -> first cell seen on it
	for _, c := range cells {
		for _, pi := range d.PinsOfCell(int(c)) {
			e := d.Pins[pi].Net
			if first, ok := seen[e]; ok && first != c {
				return true
			}
			seen[e] = c
		}
	}
	return false
}

// TestEvaluationAllocatesNothing: once a state is built, evaluating a
// candidate move and running a whole reorder pass allocate nothing.
func TestEvaluationAllocatesNothing(t *testing.T) {
	d := legalDesign(t, 150, 0, 11)
	st, err := buildState(d)
	if err != nil {
		t.Fatal(err)
	}
	mov := d.MovableIndices()
	cells := []int32{int32(mov[4]), int32(mov[9])}
	xs := []float64{d.X[cells[1]], d.X[cells[0]]}
	ys := []float64{d.Y[cells[1]], d.Y[cells[0]]}
	if n := testing.AllocsPerRun(100, func() { st.hpwlDelta(cells, xs, ys) }); n != 0 {
		t.Errorf("hpwlDelta: %v allocations per call, want 0", n)
	}
	if n := testing.AllocsPerRun(5, func() { st.reorderPass(maxWindow) }); n != 0 {
		t.Errorf("reorderPass: %v allocations per pass, want 0", n)
	}
}

// TestHpwlDeltaEpochWrap: the epoch counter behind hpwlDelta's marks wraps
// past math.MaxUint32 and revisits epochs whose stamps calls 2^32 epochs
// earlier left behind. Every delta across the wrap must equal a fresh
// state's, bit for bit.
func TestHpwlDeltaEpochWrap(t *testing.T) {
	d := legalDesign(t, 150, 0, 12)
	st, err := buildState(d)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := buildState(d)
	if err != nil {
		t.Fatal(err)
	}
	// Every cell and net carries a stamp of the first epochs after the
	// wrap, as if the last 2^32 calls had touched them all.
	for _, m := range []*marks{&st.netMark, &st.moved} {
		for i := range m.stamp {
			m.stamp[i] = uint32(1 + i%3)
		}
		m.epoch = math.MaxUint32 - 2
	}
	mov := d.MovableIndices()
	for k := 0; k < 8; k++ {
		a, b := int32(mov[k]), int32(mov[k+7])
		cells, xs, ys := []int32{a, b}, []float64{d.X[b], d.X[a]}, []float64{d.Y[b], d.Y[a]}
		got, want := st.hpwlDelta(cells, xs, ys), fresh.hpwlDelta(cells, xs, ys)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d (epoch %d): delta %g, fresh state %g", k, st.netMark.epoch, got, want)
		}
	}
	if st.netMark.epoch != 6 || st.moved.epoch != 6 {
		t.Fatalf("epochs %d and %d after 8 calls from MaxUint32-2, want 6", st.netMark.epoch, st.moved.epoch)
	}
}

func TestHungarianKnownMatrices(t *testing.T) {
	// Classic 3x3: optimal assignment (0->1, 1->0, 2->2) with cost 5.
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	perm := new(hungarian).solve(cost)
	total := 0.0
	for i, j := range perm {
		total += cost[i][j]
	}
	if total != 5 {
		t.Errorf("assignment cost = %g, want 5 (perm %v)", total, perm)
	}
	// Permutation must be a bijection.
	seen := map[int]bool{}
	for _, j := range perm {
		if seen[j] {
			t.Fatalf("column %d assigned twice", j)
		}
		seen[j] = true
	}
	if len(new(hungarian).solve(nil)) != 0 {
		t.Error("empty matrix should yield empty assignment")
	}
}

func TestHungarianMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// One solver across sizes 2..6 pins the reset of its reused lanes.
	var h hungarian
	for iter := 0; iter < 50; iter++ {
		n := 2 + rng.Intn(5)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = rng.NormFloat64() * 10
			}
		}
		perm := h.solve(cost)
		got := 0.0
		for i, j := range perm {
			got += cost[i][j]
		}
		// Brute force over all permutations.
		best := math.Inf(1)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		var rec func(k int, cur float64, used []bool)
		used := make([]bool, n)
		rec = func(k int, cur float64, used []bool) {
			if k == n {
				if cur < best {
					best = cur
				}
				return
			}
			for j := 0; j < n; j++ {
				if !used[j] {
					used[j] = true
					rec(k+1, cur+cost[k][j], used)
					used[j] = false
				}
			}
		}
		rec(0, 0, used)
		if math.Abs(got-best) > 1e-9 {
			t.Fatalf("hungarian cost %g != brute force %g (n=%d)", got, best, n)
		}
	}
}

func TestDetailedWithISM(t *testing.T) {
	d := legalDesign(t, 400, 0, 13)
	res, err := Place(d, Options{UseISM: true, Passes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL > res.StartHPWL {
		t.Errorf("ISM run worsened HPWL: %g -> %g", res.StartHPWL, res.HPWL)
	}
	if err := legalize.CheckLegal(d); err != nil {
		t.Fatalf("ISM output illegal: %v", err)
	}
}

func TestISMBeatsOrMatchesSwapOnly(t *testing.T) {
	d1 := legalDesign(t, 500, 0, 14)
	d2 := d1.Clone()
	plain, err := Place(d1, Options{Passes: 3})
	if err != nil {
		t.Fatal(err)
	}
	ism, err := Place(d2, Options{Passes: 3, UseISM: true})
	if err != nil {
		t.Fatal(err)
	}
	// ISM adds an exact move; it should never end up meaningfully worse.
	if ism.HPWL > plain.HPWL*1.001 {
		t.Errorf("ISM HPWL %g worse than swap-only %g", ism.HPWL, plain.HPWL)
	}
}

func BenchmarkDetailedPasses(b *testing.B) {
	base := legalDesign(b, 800, 0, 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := base.Clone()
		if _, err := Place(d, Options{Passes: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetailedISM(b *testing.B) {
	base := legalDesign(b, 800, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := base.Clone()
		if _, err := Place(d, Options{Passes: 2, UseISM: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNetBoxesFollowEveryWrite applies each kind of position write — a
// whitespace move, a swap, a reorder pass and an independent-set matching
// pass — and after each one requires every net's kept box to equal a fresh
// walk of its pins. Each write must change some box, so a write that skips
// its refresh leaves a stale one behind.
func TestNetBoxesFollowEveryWrite(t *testing.T) {
	d := legalDesign(t, 300, 0, 17)
	st, err := buildState(d)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(name string, write func() bool) {
		t.Helper()
		before := slices.Clone(st.boxes)
		if !write() {
			t.Fatalf("%s: nothing was written", name)
		}
		changed := false
		for e := range st.boxes {
			fresh := st.netBox(int32(e))
			if st.boxes[e] != fresh {
				t.Fatalf("%s: net %d keeps box %+v, a fresh walk gives %+v", name, e, st.boxes[e], fresh)
			}
			changed = changed || fresh != before[e]
		}
		if !changed {
			t.Fatalf("%s changed no net's box", name)
		}
	}

	var std []int32
	for c := range d.Cells {
		if st.rowOf[c] >= 0 && len(d.PinsOfCell(c)) > 0 {
			std = append(std, int32(c))
		}
	}
	apply("move", func() bool {
		c := std[0]
		w := d.Cells[c].W
		for k := 1; k < len(st.rows); k++ {
			ri := (int(st.rowOf[c]) + len(st.rows)/2 + k) % len(st.rows)
			row := &st.rows[ri]
			lo, hi, gi := st.gapAround(ri, (row.xl+row.xh)/2, w, c)
			if gi >= 0 {
				st.applyMove(c, ri, math.Max(lo, math.Min((row.xl+row.xh)/2, hi-w)))
				return true
			}
		}
		return false
	})
	apply("swap", func() bool {
		for _, a := range std {
			for _, b := range std {
				if d.Cells[a].W == d.Cells[b].W && math.Abs(d.Y[a]-d.Y[b]) > d.Region.H()/3 {
					st.applySwap(a, b)
					return true
				}
			}
		}
		return false
	})
	apply("reorder", func() bool { return st.reorderPass(maxWindow) > 0 })
	apply("ISM", func() bool { return st.ismPass(8) > 0 })
}
