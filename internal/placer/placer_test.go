package placer

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/netlist"
	"repro/internal/synth"
	"repro/internal/wirelength"
)

func testDesign(t testing.TB, cells int, macros int) *netlist.Design {
	t.Helper()
	spec := synth.Spec{
		Name:           "placer-test",
		NumMovable:     cells,
		NumMacros:      macros,
		NumPads:        8,
		NumFixedBlocks: 1,
		NumNets:        cells + cells/10,
		AvgDegree:      3.8,
		Utilization:    0.7,
		TargetDensity:  1.0,
		Seed:           11,
	}
	d, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// coldEngine builds the engine of a cold start on d and its initial
// positions.
func coldEngine(t testing.TB, d *netlist.Design, cfg Config) (*engine, []float64) {
	t.Helper()
	en, err := newEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]float64, 2*(len(en.mov)+en.numFillers))
	if err := en.initialPos(pos); err != nil {
		t.Fatal(err)
	}
	return en, pos
}

func fastConfig(m wirelength.Model) Config {
	cfg := DefaultConfig(m)
	cfg.MaxIters = 400
	cfg.StopOverflow = 0.15
	return cfg
}

func TestPlaceReducesOverflow(t *testing.T) {
	d := testDesign(t, 600, 0)
	m, _ := wirelength.ByName("WA")
	res, err := Place(d, fastConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow >= 0.15 {
		t.Errorf("final overflow = %g, want < 0.15", res.Overflow)
	}
	if res.Iterations <= 0 || res.Evaluations < res.Iterations {
		t.Errorf("iterations=%d evaluations=%d inconsistent", res.Iterations, res.Evaluations)
	}
}

func TestPlaceAllModels(t *testing.T) {
	if testing.Short() {
		t.Skip("full model sweep in -short mode")
	}
	d := testDesign(t, 400, 0)
	for _, name := range wirelength.AllModelNames() {
		m, _ := wirelength.ByName(name)
		dd := d.Clone()
		res, err := Place(dd, fastConfig(m))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Overflow >= 0.25 {
			t.Errorf("%s: overflow %g did not converge", name, res.Overflow)
		}
		if math.IsNaN(res.HPWL) || res.HPWL <= 0 {
			t.Errorf("%s: HPWL = %g", name, res.HPWL)
		}
	}
}

func TestPlaceKeepsCellsInsideRegion(t *testing.T) {
	d := testDesign(t, 500, 2)
	m, _ := wirelength.ByName("ME")
	if _, err := Place(d, fastConfig(m)); err != nil {
		t.Fatal(err)
	}
	for _, c := range d.MovableIndices() {
		r := d.CellRect(c)
		if !d.Region.ContainsRect(r) {
			t.Fatalf("cell %d at %v escaped region %v", c, r, d.Region)
		}
	}
}

func TestPlaceDoesNotMoveFixedCells(t *testing.T) {
	d := testDesign(t, 300, 0)
	fixedPos := map[int][2]float64{}
	for i, c := range d.Cells {
		if !c.Kind.Moves() {
			fixedPos[i] = [2]float64{d.X[i], d.Y[i]}
		}
	}
	m, _ := wirelength.ByName("WA")
	if _, err := Place(d, fastConfig(m)); err != nil {
		t.Fatal(err)
	}
	for i, p := range fixedPos {
		if d.X[i] != p[0] || d.Y[i] != p[1] {
			t.Fatalf("fixed cell %d moved from (%g,%g) to (%g,%g)", i, p[0], p[1], d.X[i], d.Y[i])
		}
	}
}

func TestPlaceTrajectoryRecordsDescent(t *testing.T) {
	d := testDesign(t, 500, 0)
	m, _ := wirelength.ByName("ME")
	cfg := fastConfig(m)
	cfg.RecordEvery = 10
	res, err := Place(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) < 3 {
		t.Fatalf("trajectory has %d points", len(res.Trajectory))
	}
	first := res.Trajectory[0]
	last := res.Trajectory[len(res.Trajectory)-1]
	if last.Overflow >= first.Overflow {
		t.Errorf("overflow did not decrease: %g -> %g", first.Overflow, last.Overflow)
	}
	// Each sample's smoothing parameter is the one its own overflow sets.
	en, err := newEngine(testDesign(t, 500, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Trajectory {
		if p.Param <= 0 {
			t.Errorf("iteration %d: non-positive smoothing parameter %g", p.Iter, p.Param)
		}
		if want := en.schedule(p.Overflow); p.Param != want {
			t.Errorf("iteration %d: smoothing parameter %g, want %g from overflow %g", p.Iter, p.Param, want, p.Overflow)
		}
		if p.Lambda <= 0 {
			t.Errorf("iteration %d: non-positive lambda %g", p.Iter, p.Lambda)
		}
	}
}

func TestPlaceBeatsRandomPlacementHPWL(t *testing.T) {
	d := testDesign(t, 600, 0)
	randomHPWL := wirelength.TotalHPWL(d) // synth scatters cells randomly
	m, _ := wirelength.ByName("ME")
	res, err := Place(d, fastConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL >= randomHPWL {
		t.Errorf("placed HPWL %g not better than random %g", res.HPWL, randomHPWL)
	}
}

func TestPlaceErrors(t *testing.T) {
	d := testDesign(t, 100, 0)
	if _, err := Place(d, Config{}); err == nil {
		t.Error("nil model accepted")
	}
	// No movable cells.
	m, _ := wirelength.ByName("WA")
	for i := range d.Cells {
		d.Cells[i].Kind = netlist.Fixed
	}
	if _, err := Place(d, DefaultConfig(m)); err == nil {
		t.Error("design without movable cells accepted")
	}
}

func TestGammaScheduleMonotone(t *testing.T) {
	s := GammaSchedule{Gamma0: 4, BinW: 2, BinH: 2}
	prev := 0.0
	for _, phi := range []float64{0, 0.1, 0.3, 0.5, 0.8, 1.0} {
		g := s.At(phi)
		if g <= prev {
			t.Fatalf("gamma not increasing at phi=%g: %g <= %g", phi, g, prev)
		}
		prev = g
	}
	// The schedule spans 10x base at phi=1 down to 0.1x at phi=0.1.
	base := 4.0 / 2 * (2 + 2)
	if g := s.At(1); math.Abs(g-10*base) > 1e-9 {
		t.Errorf("gamma(1) = %g, want %g", g, 10*base)
	}
	if g := s.At(0.1); math.Abs(g-0.1*base) > 1e-9 {
		t.Errorf("gamma(0.1) = %g, want %g", g, 0.1*base)
	}
	// Out-of-range overflow is clamped, not extrapolated.
	if s.At(1.5) != s.At(1) || s.At(-1) != s.At(0) {
		t.Error("gamma schedule must clamp phi to [0,1]")
	}
}

func TestTScheduleProperties(t *testing.T) {
	s := TSchedule{T0: 4, Delta: 1e-4, BinW: 2, BinH: 2}
	// Strictly positive everywhere, monotone above the clamp zone.
	prev := 0.0
	for _, phi := range []float64{0, 1e-5, 0.01, 0.07, 0.2, 0.5, 0.9, 0.999, 1.0} {
		v := s.At(phi)
		if v <= 0 {
			t.Fatalf("t(%g) = %g, want > 0", phi, v)
		}
		if v < prev {
			t.Fatalf("t not non-decreasing at phi=%g", phi)
		}
		prev = v
	}
	// Eq. 14 exactly at a mid overflow.
	phi := 0.5
	want := 4.0 / 2 * 4 * math.Tan(math.Pi/2*phi-1e-4)
	if got := s.At(phi); math.Abs(got-want) > 1e-9 {
		t.Errorf("t(0.5) = %g, want %g", got, want)
	}
	// Near phi=1 the tangent is huge but finite.
	if v := s.At(1); math.IsInf(v, 0) || v < 1000 {
		t.Errorf("t(1) = %g, want large finite", v)
	}
}

func TestLambdaUpdater(t *testing.T) {
	u := NewLambdaUpdater()
	u.Prime(0.1, 100)
	if u.Lambda() != 0.1 {
		t.Errorf("lambda0 = %g", u.Lambda())
	}
	prev := u.Lambda()
	prevAlpha := 0.0
	for k := 0; k < 50; k++ {
		l := u.Update(100)
		if l <= prev {
			t.Fatalf("lambda not increasing at step %d", k)
		}
		alpha := l - prev
		if prevAlpha > 0 {
			rate := alpha / prevAlpha
			if rate < 1.005 || rate > 1.02+1e-9 {
				t.Fatalf("alpha growth rate %g outside (alphaL,alphaH]", rate)
			}
		}
		prevAlpha = alpha
		prev = l
	}
}

func TestLambdaUpdaterDensityDependence(t *testing.T) {
	// Per Eq. 15 a large residual density keeps the growth rate near
	// alphaH (fast ramp, push harder); a small residual keeps it near
	// alphaL (gentle ramp).
	hot := NewLambdaUpdater()
	hot.Prime(1, 100)
	cold := NewLambdaUpdater()
	cold.Prime(1, 100)
	for k := 0; k < 30; k++ {
		hot.Update(1000) // density still high
		cold.Update(0.001)
	}
	if hot.Lambda() <= cold.Lambda() {
		t.Errorf("high-density lambda %g should grow faster than low-density %g", hot.Lambda(), cold.Lambda())
	}
}

func TestLambdaUpdaterPanicsUnprimed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Update before Prime did not panic")
		}
	}()
	(&LambdaUpdater{AlphaL: 1.01, AlphaH: 1.02, Beta: 2000}).Update(1)
}

func TestAutoGrid(t *testing.T) {
	cases := []struct{ cells, want int }{
		{10, 32},
		{1024, 32},
		{1025, 64},
		{5000, 128},
		{100000, 512},
		{10000000, 512}, // capped
	}
	for _, c := range cases {
		if got := autoGrid(c.cells); got != c.want {
			t.Errorf("autoGrid(%d) = %d, want %d", c.cells, got, c.want)
		}
	}
}

func TestPlaceRejectsInvalidDesign(t *testing.T) {
	d := testDesign(t, 50, 0)
	d.X = d.X[:1] // corrupt
	m, _ := wirelength.ByName("WA")
	if _, err := Place(d, DefaultConfig(m)); err == nil {
		t.Error("corrupted design accepted")
	}
}

func TestPlaceWithoutFillers(t *testing.T) {
	d := testDesign(t, 300, 0)
	m, _ := wirelength.ByName("WA")
	cfg := fastConfig(m)
	cfg.NoFillers = true
	res, err := Place(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow >= 0.3 {
		t.Errorf("no-filler run overflow = %g", res.Overflow)
	}
}

func TestPlaceKeepInputPositions(t *testing.T) {
	// Init "keep" must start from the given placement; a design that is
	// already spread out should keep overflow low from the start.
	d := testDesign(t, 300, 0)
	m, _ := wirelength.ByName("WA")
	cfg := fastConfig(m)
	cfg.Init = "keep"
	cfg.MaxIters = 5
	cfg.RecordEvery = 1
	res, err := Place(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) == 0 {
		t.Fatal("no trajectory")
	}
	if res.Trajectory[0].Overflow > 0.9 {
		t.Errorf("spread input collapsed: initial overflow %g", res.Trajectory[0].Overflow)
	}
}

func TestPlaceOptimizerVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizer sweep in -short mode")
	}
	d := testDesign(t, 300, 0)
	m, _ := wirelength.ByName("ME")
	for _, opt := range []string{"nesterov", "adam", "momentum"} {
		cfg := fastConfig(m)
		cfg.Optimizer = opt
		cfg.MaxIters = 200
		cfg.StopOverflow = 0.3
		res, err := Place(d.Clone(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", opt, err)
		}
		if math.IsNaN(res.HPWL) || res.HPWL <= 0 {
			t.Errorf("%s: HPWL = %g", opt, res.HPWL)
		}
	}
	cfg := fastConfig(m)
	cfg.Optimizer = "bogus"
	if _, err := Place(d.Clone(), cfg); err == nil {
		t.Error("unknown optimizer accepted")
	}
}

func TestPlaceScheduleOverride(t *testing.T) {
	d := testDesign(t, 200, 0)
	m, _ := wirelength.ByName("ME")
	for _, sched := range []string{"gamma", "tangent"} {
		cfg := fastConfig(m)
		cfg.Schedule = sched
		cfg.MaxIters = 100
		cfg.StopOverflow = 0.4
		if _, err := Place(d.Clone(), cfg); err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
	}
	cfg := fastConfig(m)
	cfg.Schedule = "nope"
	if _, err := Place(d.Clone(), cfg); err == nil {
		t.Error("unknown schedule accepted")
	}
}

func TestPlaceQuadraticInit(t *testing.T) {
	d := testDesign(t, 250, 0)
	m, _ := wirelength.ByName("ME")
	cfg := fastConfig(m)
	cfg.Init = "quadratic"
	cfg.MaxIters = 150
	cfg.StopOverflow = 0.3
	res, err := Place(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL <= 0 {
		t.Errorf("HPWL = %g", res.HPWL)
	}
	cfg.Init = "bogus"
	if _, err := Place(d.Clone(), cfg); err == nil {
		t.Error("unknown init accepted")
	}
}

func TestPlacePreconditioned(t *testing.T) {
	d := testDesign(t, 300, 0)
	m, _ := wirelength.ByName("ME")
	cfg := fastConfig(m)
	cfg.Precondition = true
	cfg.MaxIters = 800
	res, err := Place(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow >= 0.3 {
		t.Errorf("preconditioned run stuck at overflow %g", res.Overflow)
	}
	if math.IsNaN(res.HPWL) || res.HPWL <= 0 {
		t.Errorf("HPWL = %g", res.HPWL)
	}
}

// TestPlaceParallelWirelengthMatches runs one model instance twice, the
// second time with the deprecated Workers knob at 3 and through the early
// stop on overflow: the model carries no state from one run into the next
// and Workers changes nothing, so both runs reach the same HPWL bits.
func TestPlaceParallelWirelengthMatches(t *testing.T) {
	d1 := testDesign(t, 300, 0)
	d2 := d1.Clone()
	m, _ := wirelength.ByName("ME")
	cfg := fastConfig(m)
	cfg.MaxIters = 120
	cfg.StopOverflow = 0.4
	r1, err := Place(d1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Workers = 3
	r2, err := Place(d2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.HPWL != r2.HPWL {
		t.Errorf("second run diverged: %v vs %v", r1.HPWL, r2.HPWL)
	}
}

// TestPlaceParallelMatchesSerialRun pins that the deprecated Workers knob is
// accepted and changes nothing: a short full placement at each Workers value
// equals (==) the Workers 1 run in positions, HPWL, iteration count and
// trajectory.
func TestPlaceParallelMatchesSerialRun(t *testing.T) {
	run := func(workers int) (*Result, *netlist.Design) {
		d := testDesign(t, 400, 0)
		cfg := fastConfig(wirelength.NewMoreau())
		cfg.MaxIters = 60
		cfg.RecordEvery = 5
		cfg.Workers = workers
		res, err := Place(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, d
	}
	ref, dRef := run(1)
	if len(ref.Trajectory) == 0 {
		t.Fatal("Workers 1 run recorded no trajectory")
	}
	for _, workers := range []int{2, 3, 4, 7, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res, d := run(workers)
			if res.Iterations != ref.Iterations || res.HPWL != ref.HPWL {
				t.Errorf("Workers %d: %d iterations, HPWL %v; Workers 1: %d, %v", workers, res.Iterations, res.HPWL, ref.Iterations, ref.HPWL)
			}
			for c := range dRef.X {
				if d.X[c] != dRef.X[c] || d.Y[c] != dRef.Y[c] {
					t.Fatalf("cell %d: Workers %d (%v,%v), Workers 1 (%v,%v)", c, workers, d.X[c], d.Y[c], dRef.X[c], dRef.Y[c])
				}
			}
			if !reflect.DeepEqual(res.Trajectory, ref.Trajectory) {
				t.Errorf("trajectories differ (%d vs %d points)", len(res.Trajectory), len(ref.Trajectory))
			}
		})
	}
}
