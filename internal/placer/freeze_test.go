package placer

import (
	"testing"

	"repro/internal/wirelength"
)

// freezeConfig places d once cold, then freezes every movable cell except a
// small released window and re-runs with Init "keep" — the ECO warm-start
// shape the ecocache layer drives.
func TestFreezePinsCellsAndReportsCounts(t *testing.T) {
	d := testDesign(t, 400, 0)
	m, _ := wirelength.ByName("ME")
	cold := fastConfig(m)
	if _, err := Place(d, cold); err != nil {
		t.Fatal(err)
	}

	freeze := make([]bool, d.NumCells())
	released := 0
	for _, c := range d.MovableIndices() {
		if released < 40 {
			released++
			continue
		}
		freeze[c] = true
	}
	frozenX := append([]float64(nil), d.X...)
	frozenY := append([]float64(nil), d.Y...)

	warm := fastConfig(m)
	warm.Init = "keep"
	warm.Freeze = freeze
	warm.MaxIters = 60
	warm.StopOverflow = 1e-9 // run the full 60 iterations
	res, err := Place(d, warm)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReleasedCells != released {
		t.Errorf("ReleasedCells = %d, want %d", res.ReleasedCells, released)
	}
	if want := len(d.MovableIndices()) - released; res.FrozenCells != want {
		t.Errorf("FrozenCells = %d, want %d", res.FrozenCells, want)
	}
	movedReleased := false
	for i := range d.Cells {
		if freeze[i] {
			if d.X[i] != frozenX[i] || d.Y[i] != frozenY[i] {
				t.Fatalf("frozen cell %d moved from (%g,%g) to (%g,%g)",
					i, frozenX[i], frozenY[i], d.X[i], d.Y[i])
			}
		} else if d.Cells[i].Kind.Moves() && (d.X[i] != frozenX[i] || d.Y[i] != frozenY[i]) {
			movedReleased = true
		}
	}
	if !movedReleased {
		t.Error("no released cell moved; the partial-release run was a no-op")
	}
}

func TestFreezeRejectsBadMaskLength(t *testing.T) {
	d := testDesign(t, 100, 0)
	m, _ := wirelength.ByName("WA")
	cfg := fastConfig(m)
	cfg.Freeze = make([]bool, d.NumCells()+1)
	if _, err := Place(d, cfg); err == nil {
		t.Fatal("mis-sized Freeze mask was accepted")
	}
	cfg.Freeze = make([]bool, d.NumCells())
	for _, c := range d.MovableIndices() {
		cfg.Freeze[c] = true
	}
	if _, err := Place(d, cfg); err == nil {
		t.Fatal("all-frozen run was accepted")
	}
}

func TestFreezeHashDistinguishesMasks(t *testing.T) {
	if FreezeHash(nil) != 0 {
		t.Error("nil mask must hash to 0")
	}
	if FreezeHash(make([]bool, 8)) != 0 {
		t.Error("all-false mask must hash to 0")
	}
	a := []bool{true, false, false}
	b := []bool{false, true, false}
	if FreezeHash(a) == 0 || FreezeHash(a) == FreezeHash(b) {
		t.Errorf("mask hashes collide: %d vs %d", FreezeHash(a), FreezeHash(b))
	}
	// A frozen run's snapshot must not resume a differently-frozen run.
	d := testDesign(t, 120, 0)
	m, _ := wirelength.ByName("WA")
	cfg := fastConfig(m)
	cfg.Freeze = make([]bool, d.NumCells())
	cfg.Freeze[d.MovableIndices()[0]] = true
	en1, err := newEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Freeze = nil
	en2, err := newEngine(d.Clone(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := en1.fingerprint().Match(en2.fingerprint()); err == nil {
		t.Fatal("fingerprints with different freeze masks matched")
	}
}
