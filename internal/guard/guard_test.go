package guard

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func healthy(iter int, hpwl float64) Sample {
	return Sample{Iter: iter, Objective: hpwl, HPWL: hpwl, Pos: []float64{1, 2}}
}

func TestCheckPassesHealthyTrajectory(t *testing.T) {
	var m Monitor
	for k := 0; k < 100; k++ {
		if v := m.Check(healthy(k, 1000-float64(k))); v != nil {
			t.Fatalf("healthy sample tripped at iter %d: %v", k, v)
		}
	}
}

func TestCheckNonFinitePositions(t *testing.T) {
	var m Monitor
	s := healthy(3, 100)
	s.Pos = []float64{1, math.NaN(), 2}
	v := m.Check(s)
	if v == nil || v.Kind != KindNonFinitePositions {
		t.Fatalf("violation = %v, want %s", v, KindNonFinitePositions)
	}
	if v.Cell != 1 {
		t.Errorf("Cell = %d, want 1", v.Cell)
	}
	s.Pos = []float64{math.Inf(-1)}
	if v := m.Check(s); v == nil || v.Kind != KindNonFinitePositions {
		t.Fatalf("Inf position not caught: %v", v)
	}
}

func TestCheckNonFiniteObjective(t *testing.T) {
	var m Monitor
	s := healthy(0, 100)
	s.Objective = math.NaN()
	if v := m.Check(s); v == nil || v.Kind != KindNonFiniteObjective {
		t.Fatalf("violation = %v, want %s", v, KindNonFiniteObjective)
	}
}

func TestCheckHPWLExplosion(t *testing.T) {
	var m Monitor
	for k := 0; k < window; k++ {
		if v := m.Check(healthy(k, 100)); v != nil {
			t.Fatalf("warmup tripped: %v", v)
		}
	}
	// Just under growth×100: fine. Just over: trips.
	if v := m.Check(healthy(window, 100*growth-1)); v != nil {
		t.Fatalf("sub-threshold growth tripped: %v", v)
	}
	v := m.Check(healthy(window+1, 100*growth+1))
	if v == nil || v.Kind != KindHPWLExplosion {
		t.Fatalf("violation = %v, want %s", v, KindHPWLExplosion)
	}
	if v.Limit != 100*growth {
		t.Errorf("Limit = %g, want %d", v.Limit, 100*growth)
	}
	// NaN HPWL also maps to explosion, before any window math.
	s := healthy(window+2, 100)
	s.HPWL = math.NaN()
	if v := m.Check(s); v == nil || v.Kind != KindHPWLExplosion {
		t.Fatalf("NaN HPWL: violation = %v, want %s", v, KindHPWLExplosion)
	}
}

func TestViolatingSampleNotAddedToWindow(t *testing.T) {
	// A full window: one low sample, then samples right at growth× it.
	var m Monitor
	m.Check(healthy(0, 100))
	for k := 1; k < window; k++ {
		if v := m.Check(healthy(k, 100*growth)); v != nil {
			t.Fatalf("sample at the limit tripped: %v", v)
		}
	}
	if v := m.Check(healthy(window, 100*growth+1)); v == nil {
		t.Fatal("explosion not caught")
	}
	// Had the rejected sample entered the full window, it would have pushed
	// out the low one, and the same value would now pass.
	if v := m.Check(healthy(window+1, 100*growth+1)); v == nil {
		t.Fatal("window was polluted by the rejected sample")
	}
}

func TestRewindReplaysWindow(t *testing.T) {
	var m Monitor
	for k := 0; k < window; k++ {
		m.Check(healthy(k, 100))
	}
	m.Check(healthy(window, 150))
	m.Rewind(window)
	// After rewinding iteration window, the window min is 100 again and the
	// same sample must behave identically to the first pass.
	if v := m.Check(healthy(window, 150)); v != nil {
		t.Fatalf("replay after rewind tripped: %v", v)
	}
	if v := m.Check(healthy(window+1, 100*growth+1)); v == nil {
		t.Fatal("rewind lost the window history")
	}
}

func TestValidate(t *testing.T) {
	for _, c := range []Config{{}, {MaxRetries: 1}} {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	if c := (Config{MaxRetries: -1}); c.Validate() == nil {
		t.Errorf("Validate(%+v) = nil, want error", c)
	}
}

func TestDivergenceError(t *testing.T) {
	err := &DivergenceError{
		Violations: []Violation{
			{Kind: KindNonFinitePositions, Iter: 12, Value: math.NaN(), Cell: 7},
			{Kind: KindHPWLExplosion, Iter: 12, Value: 1e12, Limit: 1e9, Cell: -1},
		},
		Retries:  3,
		LastGood: 10,
	}
	msg := err.Error()
	for _, want := range []string{"3 rollback(s)", "iteration 10", string(KindNonFinitePositions), string(KindHPWLExplosion), "cell 7"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error message %q missing %q", msg, want)
		}
	}
	var de *DivergenceError
	if !errors.As(error(err), &de) {
		t.Fatal("errors.As failed on DivergenceError")
	}
}
