package placer

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/density"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/wirelength"
)

// finitePositions fails the test if any movable cell of d sits at a
// non-finite coordinate.
func finitePositions(t *testing.T, res *Result) {
	t.Helper()
	if math.IsNaN(res.HPWL) || math.IsInf(res.HPWL, 0) {
		t.Fatalf("result HPWL is non-finite: %v", res.HPWL)
	}
	if math.IsNaN(res.Overflow) || math.IsInf(res.Overflow, 0) {
		t.Fatalf("result overflow is non-finite: %v", res.Overflow)
	}
}

// TestGuardNilAndIdleAreBitIdentical the acceptance equivalence check: a
// run with the guard enabled but never tripping must be bit-identical to a
// guardless run — every guard read is side-effect free — and Guard == nil
// must cost nothing.
func TestGuardNilAndIdleAreBitIdentical(t *testing.T) {
	dA := testDesign(t, 80, 0)
	resA, err := Place(dA, resumeBase())
	if err != nil {
		t.Fatal(err)
	}

	dB := testDesign(t, 80, 0)
	cfgB := resumeBase()
	cfgB.Guard = &guard.Config{}
	resB, err := Place(dB, cfgB)
	if err != nil {
		t.Fatal(err)
	}

	if resB.GuardTrips != 0 || resB.GuardRollbacks != 0 {
		t.Fatalf("healthy run tripped the guard: %d trips, %d rollbacks",
			resB.GuardTrips, resB.GuardRollbacks)
	}
	if resA.HPWL != resB.HPWL || resA.Overflow != resB.Overflow {
		t.Errorf("HPWL/overflow diverged: %v/%v vs %v/%v",
			resA.HPWL, resA.Overflow, resB.HPWL, resB.Overflow)
	}
	if resA.Evaluations != resB.Evaluations {
		t.Errorf("Evaluations = %d vs %d", resA.Evaluations, resB.Evaluations)
	}
	if !reflect.DeepEqual(resA.Trajectory, resB.Trajectory) {
		t.Errorf("trajectories diverged")
	}
	for c := range dA.Cells {
		if dA.X[c] != dB.X[c] || dA.Y[c] != dB.Y[c] {
			t.Fatalf("cell %d diverged: (%v,%v) vs (%v,%v)",
				c, dA.X[c], dA.Y[c], dB.X[c], dB.Y[c])
		}
	}
}

// TestGuardRecoversFromInjectedNaN the headline fault-injection test: one
// NaN poisoned into the wirelength gradient mid-loop trips the guard in
// the same iteration, rolls back, and — because the first retry replays at
// full step and the fault is transient — finishes bit-identical to the
// clean run (far inside the 1% acceptance tolerance).
func TestGuardRecoversFromInjectedNaN(t *testing.T) {
	dClean := testDesign(t, 80, 0)
	clean, err := Place(dClean, resumeBase())
	if err != nil {
		t.Fatal(err)
	}

	// Eval 40 lands mid-loop: past setup calibration (1 visit) and well
	// into the Nesterov iterations (1-3 evals each).
	plan := faultinject.NewPlan(faultinject.Fault{
		Site: faultinject.SiteWirelengthGrad, Mode: faultinject.ModeNaN, After: 40,
	})
	wirelength.GradHook = func(model string, gradX, gradY []float64) {
		if _, ok := plan.Visit(faultinject.SiteWirelengthGrad); ok {
			for i := range gradX {
				gradX[i] = math.NaN()
			}
		}
	}
	defer func() { wirelength.GradHook = nil }()

	var events []guard.Event
	d := testDesign(t, 80, 0)
	cfg := resumeBase()
	cfg.Guard = &guard.Config{OnEvent: func(ev guard.Event) { events = append(events, ev) }}
	res, err := Place(d, cfg)
	if err != nil {
		t.Fatalf("guarded run failed: %v", err)
	}
	if plan.Fired(faultinject.SiteWirelengthGrad) != 1 {
		t.Fatalf("fault fired %d times, want 1", plan.Fired(faultinject.SiteWirelengthGrad))
	}
	if res.GuardTrips != 1 || res.GuardRollbacks != 1 {
		t.Fatalf("GuardTrips=%d GuardRollbacks=%d, want 1/1", res.GuardTrips, res.GuardRollbacks)
	}
	if res.GuardRecoveries != 1 {
		t.Errorf("GuardRecoveries = %d, want 1 (episode should close within the run)", res.GuardRecoveries)
	}
	finitePositions(t, res)
	if res.HPWL != clean.HPWL {
		t.Errorf("HPWL after recovery = %v, want bit-identical %v (diff %g)",
			res.HPWL, clean.HPWL, res.HPWL-clean.HPWL)
	}
	if math.Abs(res.HPWL-clean.HPWL) > 0.01*clean.HPWL {
		t.Errorf("HPWL after recovery off by more than 1%%: %v vs %v", res.HPWL, clean.HPWL)
	}
	for c := range d.Cells {
		if d.X[c] != dClean.X[c] || d.Y[c] != dClean.Y[c] {
			t.Fatalf("cell %d diverged after recovery", c)
		}
	}

	var kinds []guard.EventKind
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
	}
	want := []guard.EventKind{guard.EventTrip, guard.EventRollback, guard.EventRecover}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("event sequence = %v, want %v", kinds, want)
	}
	if events[0].Violation == nil || events[0].Violation.Kind != guard.KindNonFinitePositions {
		t.Errorf("trip violation = %+v, want %s", events[0].Violation, guard.KindNonFinitePositions)
	}
}

// TestGuardDivergenceErrorAfterRetryBudget a fault that poisons every
// gradient evaluation can never be replayed past: the guard burns its
// whole retry budget and fails with a typed DivergenceError — no panic,
// and the returned result holds the restored (finite) last-good state.
func TestGuardDivergenceErrorAfterRetryBudget(t *testing.T) {
	plan := faultinject.NewPlan(faultinject.Fault{
		Site: faultinject.SiteWirelengthGrad, Mode: faultinject.ModeNaN, After: 40, Forever: true,
	})
	wirelength.GradHook = func(model string, gradX, gradY []float64) {
		if _, ok := plan.Visit(faultinject.SiteWirelengthGrad); ok {
			for i := range gradX {
				gradX[i] = math.NaN()
			}
		}
	}
	defer func() { wirelength.GradHook = nil }()

	d := testDesign(t, 80, 0)
	cfg := resumeBase()
	cfg.Guard = &guard.Config{MaxRetries: 2}
	res, err := Place(d, cfg)
	var de *guard.DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *guard.DivergenceError", err)
	}
	if de.Retries != 2 {
		t.Errorf("Retries = %d, want 2", de.Retries)
	}
	if len(de.Violations) != 3 {
		t.Errorf("violation history has %d entries, want 3 (2 retries + final)", len(de.Violations))
	}
	if de.LastGood < 0 {
		t.Errorf("LastGood = %d, want a valid iteration", de.LastGood)
	}
	if res == nil {
		t.Fatal("failed run returned no partial result")
	}
	finitePositions(t, res)
	for c := range d.Cells {
		if math.IsNaN(d.X[c]) || math.IsNaN(d.Y[c]) {
			t.Fatalf("cell %d left at NaN after divergence failure", c)
		}
	}
	if res.GuardTrips != 3 {
		t.Errorf("GuardTrips = %d, want 3", res.GuardTrips)
	}
	if res.Capped {
		t.Error("a guard failure set Result.Capped")
	}
}

// TestGuardRecoversFromPoisonedSolve one poisoned Poisson field output
// propagates NaN through the density gradient; the guard absorbs it the
// same way as a wirelength fault. The sweep over the poisoned solve's index
// covers faults in density results that a later evaluation would reuse. Adam
// evaluates each iterate once, so a fault on an iteration the guard
// snapshots rolls back to the very point the poisoned result is kept for:
// the rollback must drop it, or the replay repeats the fault.
func TestGuardRecoversFromPoisonedSolve(t *testing.T) {
	defer func() { density.SolveHook = nil }()
	// lastAfter keeps the fault inside the run: Adam's 60 iterations make
	// 60 solves (setup's, then one per iteration after the first).
	for _, tc := range []struct {
		optimizer string
		lastAfter int
	}{{"nesterov", 60}, {"adam", 59}} {
		base := resumeBase()
		base.Optimizer = tc.optimizer
		clean, err := Place(testDesign(t, 80, 0), base)
		if err != nil {
			t.Fatal(err)
		}
		for after := 2; after <= tc.lastAfter; after++ {
			poisonedSolveRun(t, base, after, clean.HPWL)
		}
	}
}

// poisonedSolveRun runs cfg under the guard with the (after+1)-th Poisson
// solve poisoned and checks that the fault fires once, trips the guard, and
// that the run still finishes at wantHPWL bit for bit.
func poisonedSolveRun(t *testing.T, cfg Config, after int, wantHPWL float64) {
	t.Helper()
	plan := faultinject.NewPlan(faultinject.Fault{
		Site: faultinject.SitePoissonSolve, Mode: faultinject.ModePoison, After: after,
	})
	density.SolveHook = func(e *density.Electro) {
		if _, ok := plan.Visit(faultinject.SitePoissonSolve); ok {
			for i := range e.Ex {
				e.Ex[i] = math.NaN()
			}
		}
	}
	cfg.Guard = &guard.Config{}
	res, err := Place(testDesign(t, 80, 0), cfg)
	if err != nil {
		t.Fatalf("%s, after %d: guarded run failed: %v", cfg.Optimizer, after, err)
	}
	if n := plan.Fired(faultinject.SitePoissonSolve); n != 1 {
		t.Errorf("%s, after %d: fault fired %d times, want 1", cfg.Optimizer, after, n)
	}
	if res.GuardTrips < 1 {
		t.Errorf("%s, after %d: poisoned solve never tripped the guard", cfg.Optimizer, after)
	}
	finitePositions(t, res)
	if res.HPWL != wantHPWL {
		t.Errorf("%s, after %d: HPWL after recovery = %v, want bit-identical %v", cfg.Optimizer, after, res.HPWL, wantHPWL)
	}
}

// TestUnguardedNaNDoesNotPanic without the guard an injected NaN must
// still not crash the process (the density stamp/sample clamps make NaN
// footprints empty); the run just produces a garbage result. This pins
// down the failure mode the EXPERIMENTS note contrasts with guarded runs.
func TestUnguardedNaNDoesNotPanic(t *testing.T) {
	plan := faultinject.NewPlan(faultinject.Fault{
		Site: faultinject.SiteWirelengthGrad, Mode: faultinject.ModeNaN, After: 40,
	})
	wirelength.GradHook = func(model string, gradX, gradY []float64) {
		if _, ok := plan.Visit(faultinject.SiteWirelengthGrad); ok {
			for i := range gradX {
				gradX[i] = math.NaN()
			}
		}
	}
	defer func() { wirelength.GradHook = nil }()

	d := testDesign(t, 80, 0)
	res, err := Place(d, resumeBase())
	if err != nil {
		t.Fatalf("unguarded run errored (want silent garbage): %v", err)
	}
	if !math.IsNaN(res.HPWL) {
		t.Logf("unguarded HPWL survived as %v (positions clamped)", res.HPWL)
	}
}
