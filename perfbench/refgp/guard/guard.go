// Package guard implements the numerical-health sentinel of the guarded
// optimization loop: per-iteration invariant checks over the quantities the
// placer already computes (positions, objective, HPWL, overflow, BB step),
// plus the policy knobs and typed failure the placer's rollback machinery
// uses when an invariant trips.
//
// The package itself is engine-agnostic — it sees only Sample values and
// answers "is this iteration healthy?" — while internal/placer owns the
// snapshot ring and the actual rollback. That split keeps guard free of
// import cycles and makes the detector unit-testable with synthetic
// trajectories.
package guard

import (
	"fmt"
	"math"
	"strings"
)

// Kind classifies a detected invariant violation.
type Kind string

const (
	// KindNonFinitePositions — a coordinate went NaN or ±Inf.
	KindNonFinitePositions Kind = "nonfinite-positions"
	// KindNonFiniteObjective — the optimizer objective went NaN or ±Inf.
	KindNonFiniteObjective Kind = "nonfinite-objective"
	// KindHPWLExplosion — HPWL exceeded Growth× the trailing-window minimum.
	KindHPWLExplosion Kind = "hpwl-explosion"
	// KindOverflowStall — overflow has not improved by StallDelta over
	// StallWindow iterations while still above StallFloor.
	KindOverflowStall Kind = "overflow-stall"
	// KindStepCeiling — the BB/backtracking step exceeded MaxStep.
	KindStepCeiling Kind = "step-ceiling"
)

// Violation records one tripped invariant with enough context to debug the
// divergence after the fact.
type Violation struct {
	Kind  Kind
	Iter  int
	Value float64 // the offending quantity (HPWL, step, overflow, ...)
	Limit float64 // the threshold it crossed (0 when not applicable)
	Cell  int     // first offending cell index for position checks, else -1
}

func (v Violation) String() string {
	s := fmt.Sprintf("iter %d: %s (value %g", v.Iter, v.Kind, v.Value)
	if v.Limit != 0 {
		s += fmt.Sprintf(", limit %g", v.Limit)
	}
	if v.Cell >= 0 {
		s += fmt.Sprintf(", cell %d", v.Cell)
	}
	return s + ")"
}

// EventKind classifies guard lifecycle events.
type EventKind string

const (
	// EventTrip — an invariant violation was detected.
	EventTrip EventKind = "trip"
	// EventRollback — state was restored from a snapshot and the step
	// shrunk; the loop resumes from RestoredIter.
	EventRollback EventKind = "rollback"
	// EventRecover — the shrunken step was released after a clean recovery
	// window.
	EventRecover EventKind = "recover"
	// EventFail — the retry budget is exhausted; the run ends with a
	// DivergenceError.
	EventFail EventKind = "fail"
)

// Event is one guard lifecycle notification, delivered synchronously from
// the placement goroutine via Config.OnEvent.
type Event struct {
	Kind         EventKind
	Iter         int        // iteration the event happened at
	RestoredIter int        // rollback/fail: iteration rolled back to
	Retry        int        // rollback/fail: 1-based trip count
	Shrink       float64    // rollback: step shrink factor applied
	Violation    *Violation // trip/rollback/fail: the triggering violation
}

// Config tunes the sentinel. The zero value of every field selects a
// sensible default (see withDefaults); enabling the guard is done by
// setting placer.Config.Guard to a non-nil *Config, so &guard.Config{} is
// a complete, working configuration.
type Config struct {
	// Window is the trailing-window length (iterations) for the HPWL
	// growth check. Default 8.
	Window int
	// Growth is the allowed HPWL growth factor over the trailing-window
	// minimum before the guard trips. Default 10.
	Growth float64
	// StallWindow enables the overflow-stagnation check when > 0: the
	// guard trips if overflow improves by less than StallDelta over
	// StallWindow iterations while still above StallFloor. Default 0
	// (disabled) — stagnation is a soft failure and the check is opt-in.
	StallWindow int
	// StallDelta is the minimum overflow improvement expected per
	// StallWindow. Default 1e-4.
	StallDelta float64
	// StallFloor suppresses the stall check once overflow is below it
	// (the run is close enough to converged). Default 0.2.
	StallFloor float64
	// MaxStep trips the guard when the optimizer step size exceeds it.
	// Default 0 (disabled): the BB step is already clamped by the
	// optimizer's own AlphaMax, so this is an extra belt for tuned runs.
	MaxStep float64
	// MaxRetries bounds how many rollbacks a run may perform before the
	// guard declares divergence. Default 3.
	MaxRetries int
	// Shrink is the per-retry step-shrink base: retry r applies factor
	// Shrink^(r-1), so the first rollback replays at full step (a pure
	// transient is absorbed with zero distortion) and later ones back off
	// exponentially. Must be in (0, 1]. Default 0.5.
	Shrink float64
	// SnapshotEvery is the in-memory snapshot cadence in iterations.
	// Default 10.
	SnapshotEvery int
	// RingSize bounds the in-memory snapshot ring. Default 4.
	RingSize int
	// RecoveryWindow is how many clean iterations after a rollback before
	// the shrunken step is released back to its base value. Default 2 ×
	// SnapshotEvery.
	RecoveryWindow int
	// OnEvent, when non-nil, observes every trip/rollback/recover/fail
	// synchronously from the placement goroutine. Keep it fast.
	OnEvent func(Event)
}

// withDefaults returns a copy with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.Growth <= 0 {
		c.Growth = 10
	}
	if c.StallDelta <= 0 {
		c.StallDelta = 1e-4
	}
	if c.StallFloor <= 0 {
		c.StallFloor = 0.2
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.Shrink <= 0 || c.Shrink > 1 {
		c.Shrink = 0.5
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 10
	}
	if c.RingSize <= 0 {
		c.RingSize = 4
	}
	if c.RecoveryWindow <= 0 {
		c.RecoveryWindow = 2 * c.SnapshotEvery
	}
	return c
}

// Validate rejects configurations that are actively contradictory (as
// opposed to merely zero, which means "use the default").
func (c *Config) Validate() error {
	if c.Window < 0 {
		return fmt.Errorf("guard: Window = %d, must be >= 0", c.Window)
	}
	if c.Growth < 0 {
		return fmt.Errorf("guard: Growth = %g, must be >= 0", c.Growth)
	}
	if c.StallWindow < 0 {
		return fmt.Errorf("guard: StallWindow = %d, must be >= 0", c.StallWindow)
	}
	if c.MaxStep < 0 || math.IsNaN(c.MaxStep) {
		return fmt.Errorf("guard: MaxStep = %g, must be >= 0", c.MaxStep)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("guard: MaxRetries = %d, must be >= 0", c.MaxRetries)
	}
	if c.Shrink < 0 || c.Shrink > 1 || math.IsNaN(c.Shrink) {
		return fmt.Errorf("guard: Shrink = %g, must be in (0, 1] (0 = default)", c.Shrink)
	}
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("guard: SnapshotEvery = %d, must be >= 0", c.SnapshotEvery)
	}
	if c.RingSize < 0 {
		return fmt.Errorf("guard: RingSize = %d, must be >= 0", c.RingSize)
	}
	if c.RecoveryWindow < 0 {
		return fmt.Errorf("guard: RecoveryWindow = %d, must be >= 0", c.RecoveryWindow)
	}
	return nil
}

// Sample is one iteration's health snapshot, built by the placer from
// quantities it already computes.
type Sample struct {
	Iter      int
	Objective float64   // optimizer objective returned by Step
	HPWL      float64   // exact HPWL at the new positions
	Overflow  float64   // density overflow at the last evaluation
	Step      float64   // optimizer step size (0 when unknown)
	Pos       []float64 // packed positions; checked for finiteness, not retained
}

// Monitor holds the trailing-window state of the invariant checks. Not
// safe for concurrent use; the placer calls it from the loop goroutine.
type Monitor struct {
	cfg Config

	hpwl []histPoint // trailing window for the growth check
	over []histPoint // trailing window for the stall check
}

type histPoint struct {
	iter int
	val  float64
}

// NewMonitor builds a monitor with cfg's defaults applied. The returned
// monitor's Config reports the effective (defaulted) values.
func NewMonitor(cfg Config) *Monitor {
	return &Monitor{cfg: cfg.withDefaults()}
}

// Config returns the effective configuration (defaults applied).
func (m *Monitor) Config() Config { return m.cfg }

// Check evaluates all invariants against s and returns the first violation
// found, or nil. A healthy sample is appended to the trailing windows; a
// violating one is not (the caller is about to roll back past it anyway).
//
// Check order matters: finiteness first, so a NaN HPWL or overflow can
// never corrupt the window state used by the relative checks.
func (m *Monitor) Check(s Sample) *Violation {
	if c := firstNonFinite(s.Pos); c >= 0 {
		return &Violation{Kind: KindNonFinitePositions, Iter: s.Iter, Value: s.Pos[c], Cell: c}
	}
	if !finite(s.Objective) {
		return &Violation{Kind: KindNonFiniteObjective, Iter: s.Iter, Value: s.Objective, Cell: -1}
	}
	if !finite(s.HPWL) {
		return &Violation{Kind: KindHPWLExplosion, Iter: s.Iter, Value: s.HPWL, Cell: -1}
	}
	if len(m.hpwl) > 0 {
		min := m.hpwl[0].val
		for _, h := range m.hpwl[1:] {
			if h.val < min {
				min = h.val
			}
		}
		if limit := min * m.cfg.Growth; min > 0 && s.HPWL > limit {
			return &Violation{Kind: KindHPWLExplosion, Iter: s.Iter, Value: s.HPWL, Limit: limit, Cell: -1}
		}
	}
	if m.cfg.MaxStep > 0 && s.Step > m.cfg.MaxStep {
		return &Violation{Kind: KindStepCeiling, Iter: s.Iter, Value: s.Step, Limit: m.cfg.MaxStep, Cell: -1}
	}
	if m.cfg.StallWindow > 0 && s.Overflow > m.cfg.StallFloor && len(m.over) >= m.cfg.StallWindow {
		oldest := m.over[len(m.over)-m.cfg.StallWindow]
		if oldest.val-s.Overflow < m.cfg.StallDelta {
			return &Violation{Kind: KindOverflowStall, Iter: s.Iter, Value: s.Overflow, Limit: oldest.val, Cell: -1}
		}
	}

	m.hpwl = pushWindow(m.hpwl, histPoint{s.Iter, s.HPWL}, m.cfg.Window)
	if m.cfg.StallWindow > 0 {
		m.over = pushWindow(m.over, histPoint{s.Iter, s.Overflow}, m.cfg.StallWindow)
	}
	return nil
}

// Rewind drops window entries at or past iter, so a rollback to iter
// replays against the same history the original pass saw.
func (m *Monitor) Rewind(iter int) {
	m.hpwl = trimAfter(m.hpwl, iter)
	m.over = trimAfter(m.over, iter)
}

func pushWindow(w []histPoint, p histPoint, max int) []histPoint {
	w = append(w, p)
	if len(w) > max {
		copy(w, w[len(w)-max:])
		w = w[:max]
	}
	return w
}

func trimAfter(w []histPoint, iter int) []histPoint {
	n := len(w)
	for n > 0 && w[n-1].iter >= iter {
		n--
	}
	return w[:n]
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// firstNonFinite returns the index of the first non-finite element, or -1.
func firstNonFinite(xs []float64) int {
	for i, v := range xs {
		if !finite(v) {
			return i
		}
	}
	return -1
}

// DivergenceError is the typed failure returned when the retry budget is
// exhausted: the run could not be stabilized, but the caller still gets
// finite positions (the placer restores the last good snapshot before
// returning) plus the full violation history for diagnosis.
type DivergenceError struct {
	Violations []Violation // every trip, in order
	Retries    int         // rollbacks attempted before giving up
	LastGood   int         // iteration of the snapshot the run was left at
}

func (e *DivergenceError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "guard: divergence after %d rollback(s), state restored to iteration %d", e.Retries, e.LastGood)
	if len(e.Violations) > 0 {
		b.WriteString("; violations: ")
		for i, v := range e.Violations {
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(v.String())
		}
	}
	return b.String()
}
