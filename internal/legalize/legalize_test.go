package legalize

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/placer"
	"repro/internal/synth"
	"repro/internal/wirelength"
)

// placedDesign returns a small design after global placement (the realistic
// legalizer input: spread but overlapping).
func placedDesign(t testing.TB, cells, macros int) *netlist.Design {
	t.Helper()
	spec := synth.Spec{
		Name:           "lg-test",
		NumMovable:     cells,
		NumMacros:      macros,
		NumPads:        8,
		NumFixedBlocks: 2,
		NumNets:        cells + cells/8,
		AvgDegree:      3.8,
		Utilization:    0.65,
		TargetDensity:  1.0,
		Seed:           5,
	}
	d, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := wirelength.ByName("WA")
	cfg := placer.DefaultConfig(m)
	cfg.MaxIters = 300
	cfg.StopOverflow = 0.15
	if _, err := placer.Place(d, cfg); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAbacusProducesLegalPlacement(t *testing.T) {
	d := placedDesign(t, 500, 0)
	res, err := Abacus(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckLegal(d); err != nil {
		t.Fatalf("Abacus output illegal: %v", err)
	}
	if res.MaxDisp <= 0 || res.AvgDisp <= 0 {
		t.Errorf("suspicious displacement stats: %+v", res)
	}
	if res.HPWL <= 0 {
		t.Errorf("HPWL = %g", res.HPWL)
	}
}

func TestAbacusWithMacros(t *testing.T) {
	d := placedDesign(t, 400, 3)
	if _, err := Abacus(d, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := CheckLegal(d); err != nil {
		t.Fatalf("macro legalization illegal: %v", err)
	}
}

func TestAbacusSiteAlign(t *testing.T) {
	d := placedDesign(t, 300, 0)
	if _, err := Abacus(d, Options{SiteAlign: true}); err != nil {
		t.Fatal(err)
	}
	if err := CheckLegal(d); err != nil {
		t.Fatalf("site-aligned output illegal: %v", err)
	}
	for _, c := range d.MovableIndices() {
		if d.Cells[c].Kind == netlist.MovableMacro {
			continue
		}
		// Site width 1 in synth designs: x must be integral w.r.t. row origin.
		frac := d.X[c] - math.Floor(d.X[c])
		if frac > 1e-6 && frac < 1-1e-6 {
			t.Fatalf("cell %d x=%g not site aligned", c, d.X[c])
		}
	}
}

func TestTetrisProducesLegalPlacement(t *testing.T) {
	d := placedDesign(t, 500, 0)
	res, err := Tetris(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckLegal(d); err != nil {
		t.Fatalf("Tetris output illegal: %v", err)
	}
	if res.HPWL <= 0 {
		t.Error("no HPWL reported")
	}
}

func TestAbacusBeatsTetrisOnDisplacement(t *testing.T) {
	d1 := placedDesign(t, 600, 0)
	d2 := d1.Clone()
	ra, err := Abacus(d1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Tetris(d2)
	if err != nil {
		t.Fatal(err)
	}
	// Abacus minimizes movement; it must not be drastically worse than the
	// greedy packer, and is typically better.
	if ra.AvgDisp > rt.AvgDisp*1.2 {
		t.Errorf("Abacus avg disp %g much worse than Tetris %g", ra.AvgDisp, rt.AvgDisp)
	}
}

func TestLegalizationPreservesWirelengthQuality(t *testing.T) {
	d := placedDesign(t, 500, 0)
	gpWL := wirelength.TotalHPWL(d)
	res, err := Abacus(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// LGWL should stay within a modest factor of the GP wirelength.
	if res.HPWL > 1.5*gpWL {
		t.Errorf("legalization destroyed quality: %g -> %g", gpWL, res.HPWL)
	}
}

func TestCheckLegalCatchesViolations(t *testing.T) {
	d := placedDesign(t, 200, 0)
	if _, err := Abacus(d, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := CheckLegal(d); err != nil {
		t.Fatal(err)
	}
	mov := d.MovableIndices()

	// Off-row cell.
	d1 := d.Clone()
	d1.Y[mov[0]] += 0.5
	if CheckLegal(d1) == nil {
		t.Error("off-row cell not caught")
	}

	// Overlapping cells: move one cell onto another in the same row.
	d2 := d.Clone()
	var a, b int = -1, -1
	for _, c := range mov {
		if a < 0 {
			a = c
			continue
		}
		if d2.Y[c] == d2.Y[a] && c != a {
			b = c
			break
		}
	}
	if b >= 0 {
		d2.X[b] = d2.X[a]
		if CheckLegal(d2) == nil {
			t.Error("overlap not caught")
		}
	}

	// Outside region.
	d3 := d.Clone()
	d3.X[mov[0]] = d3.Region.XH + 100
	if CheckLegal(d3) == nil {
		t.Error("out-of-region cell not caught")
	}
}

// TestCheckLegalDeterministic: with overlaps in two rows, CheckLegal
// reports the lower row's on every call.
func TestCheckLegalDeterministic(t *testing.T) {
	d := placedDesign(t, 200, 0)
	if _, err := Abacus(d, Options{}); err != nil {
		t.Fatal(err)
	}
	// Stack the second cell of each of two rows onto the first.
	first := map[float64]int{}
	overlapped := map[float64]bool{}
	for _, c := range d.MovableIndices() {
		y := d.Y[c]
		if d.Cells[c].Kind == netlist.MovableMacro || overlapped[y] {
			continue
		}
		a, ok := first[y]
		if !ok {
			first[y] = c
			continue
		}
		if len(overlapped) < 2 {
			d.X[c] = d.X[a]
			overlapped[y] = true
		}
	}
	if len(overlapped) != 2 {
		t.Fatalf("overlaps planted in %d rows, want 2", len(overlapped))
	}
	want := CheckLegal(d)
	if want == nil {
		t.Fatal("overlaps not caught")
	}
	lowest := math.Inf(1)
	for y := range overlapped {
		lowest = math.Min(lowest, y)
	}
	if !strings.Contains(want.Error(), fmt.Sprintf("row y=%g ", lowest)) {
		t.Errorf("first report %q, want the row at y=%g", want, lowest)
	}
	for i := 0; i < 50; i++ {
		if err := CheckLegal(d); err == nil || err.Error() != want.Error() {
			t.Fatalf("call %d reported %v, the first call %v", i, err, want)
		}
	}
}

func TestAbacusRequiresRows(t *testing.T) {
	d := placedDesign(t, 50, 0)
	d.Rows = nil
	if _, err := Abacus(d, Options{}); err == nil {
		t.Error("Abacus accepted rowless design")
	}
	if _, err := Tetris(d); err == nil {
		t.Error("Tetris accepted rowless design")
	}
}

func TestAbacusDeterministic(t *testing.T) {
	d1 := placedDesign(t, 300, 0)
	d2 := d1.Clone()
	if _, err := Abacus(d1, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Abacus(d2, Options{}); err != nil {
		t.Fatal(err)
	}
	for i := range d1.X {
		if d1.X[i] != d2.X[i] || d1.Y[i] != d2.Y[i] {
			t.Fatalf("nondeterministic legalization at cell %d", i)
		}
	}
}

func TestTrialInsertMatchesCommit(t *testing.T) {
	seg := &segment{y: 0, xl: 0, xh: 100, siteW: 1}
	cells := []struct{ x, w float64 }{
		{10, 4}, {12, 3}, {11, 2}, {50, 5}, {49, 5}, {0, 3}, {90, 8}, {95, 8},
	}
	for i, c := range cells {
		want, ok := trialInsert(seg, c.x, c.w)
		if !ok {
			t.Fatalf("cell %d does not fit", i)
		}
		commitInsert(seg, int32(i), c.x, c.w)
		// Locate cell i's committed position.
		got := math.NaN()
		for _, cl := range seg.clusters {
			x := cl.x
			for k, id := range cl.cells {
				if id == int32(i) {
					got = x
				}
				x += cl.widths[k]
			}
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("cell %d: trial %g != commit %g", i, want, got)
		}
	}
	// Clusters must be non-overlapping and inside the segment.
	prevEnd := seg.xl
	for _, cl := range seg.clusters {
		if cl.x < prevEnd-1e-9 {
			t.Fatalf("cluster at %g overlaps previous end %g", cl.x, prevEnd)
		}
		prevEnd = cl.x + cl.w
	}
	if prevEnd > seg.xh+1e-9 {
		t.Fatalf("clusters exceed segment: %g > %g", prevEnd, seg.xh)
	}
}

func TestSegmentsRespectObstacles(t *testing.T) {
	d := placedDesign(t, 300, 2)
	if _, err := Abacus(d, Options{}); err != nil {
		t.Fatal(err)
	}
	// Already covered by CheckLegal, but assert macros truly became
	// obstacles: no std cell inside any macro rect.
	for _, c := range d.MovableIndices() {
		if d.Cells[c].Kind != netlist.MovableMacro {
			continue
		}
		mr := d.CellRect(c)
		for _, s := range d.MovableIndices() {
			if s == c || d.Cells[s].Kind == netlist.MovableMacro {
				continue
			}
			if mr.Expand(-1e-6).Overlaps(d.CellRect(s)) {
				t.Fatalf("cell %d inside macro %d", s, c)
			}
		}
	}
}

func BenchmarkAbacus(b *testing.B) {
	base := placedDesign(b, 800, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := base.Clone()
		if _, err := Abacus(d, Options{SiteAlign: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTetris(b *testing.B) {
	base := placedDesign(b, 800, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := base.Clone()
		if _, err := Tetris(d); err != nil {
			b.Fatal(err)
		}
	}
}
