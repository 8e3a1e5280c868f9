// Package guard implements the numerical-health sentinel of the guarded
// optimization loop: per-iteration invariant checks over the quantities the
// placer already computes (positions, objective, HPWL), plus the retry
// budget, events and typed failure the placer's rollback machinery uses when
// an invariant trips.
//
// The package itself is engine-agnostic — it sees only Sample values and
// answers "is this iteration healthy?" — while internal/placer owns the kept
// snapshot and the actual rollback. That split keeps guard free of import
// cycles and makes the detector unit-testable with synthetic trajectories.
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
	// KindHPWLExplosion — HPWL went non-finite or exceeded growth× the
	// trailing-window minimum.
	KindHPWLExplosion Kind = "hpwl-explosion"
)

// The HPWL growth check trips when HPWL exceeds growth times its minimum
// over the last window healthy iterations.
const (
	window = 8
	growth = 10
)

// Violation records one tripped invariant with enough context to debug the
// divergence after the fact.
type Violation struct {
	Kind  Kind
	Iter  int
	Value float64 // the offending quantity (a coordinate, the objective or HPWL)
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

// Config enables the guard with a retry budget; placer.Config.Guard set to
// &guard.Config{} is a complete, working configuration.
type Config struct {
	// MaxRetries bounds how many rollbacks a divergence episode may perform
	// before the guard declares divergence. 0 selects the default, 3.
	MaxRetries int
	// OnEvent, when non-nil, observes every trip/rollback/recover/fail
	// synchronously from the placement goroutine. Keep it fast.
	OnEvent func(Event)
}

// Validate rejects a negative retry budget.
func (c *Config) Validate() error {
	if c.MaxRetries < 0 {
		return fmt.Errorf("guard: MaxRetries = %d, must be >= 0", c.MaxRetries)
	}
	return nil
}

// Sample is one iteration's health snapshot, built by the placer from
// quantities it already computes.
type Sample struct {
	Iter      int
	Objective float64   // optimizer objective returned by Step
	HPWL      float64   // exact HPWL at the new positions
	Pos       []float64 // packed positions; checked for finiteness, not retained
}

// Monitor holds the trailing window of the HPWL growth check; the zero
// Monitor is ready to use. Not safe for concurrent use; the placer calls it
// from the loop goroutine.
type Monitor struct {
	hpwl []histPoint
}

type histPoint struct {
	iter int
	val  float64
}

// Check evaluates all invariants against s and returns the first violation
// found, or nil. A healthy sample is appended to the trailing window; a
// violating one is not (the caller is about to roll back past it anyway).
//
// Check order matters: finiteness first, so a NaN HPWL can never corrupt
// the window state used by the growth check.
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
		if limit := min * growth; min > 0 && s.HPWL > limit {
			return &Violation{Kind: KindHPWLExplosion, Iter: s.Iter, Value: s.HPWL, Limit: limit, Cell: -1}
		}
	}

	m.hpwl = append(m.hpwl, histPoint{s.Iter, s.HPWL})
	if len(m.hpwl) > window {
		copy(m.hpwl, m.hpwl[len(m.hpwl)-window:])
		m.hpwl = m.hpwl[:window]
	}
	return nil
}

// Rewind drops window entries at or past iter, so a rollback to iter
// replays against the same history the original pass saw.
func (m *Monitor) Rewind(iter int) {
	n := len(m.hpwl)
	for n > 0 && m.hpwl[n-1].iter >= iter {
		n--
	}
	m.hpwl = m.hpwl[:n]
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
