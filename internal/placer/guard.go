package placer

import (
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/optimizer"
)

// The guard's rollback policy: the kept snapshot is refreshed every
// snapshotEvery iterations; retry r of a divergence episode replays at
// shrink^(r-1) of the step; an episode closes recoveryWindow clean
// iterations after the iteration it rolled back to; and a zero
// guard.Config.MaxRetries selects defaultMaxRetries.
const (
	snapshotEvery     = 10
	shrink            = 0.5
	recoveryWindow    = 2 * snapshotEvery
	defaultMaxRetries = 3
)

// guardian wires a guard.Monitor into the placement loop: it keeps the
// newest snapshot the checks vouched for (the same checkpoint.Snapshot the
// on-disk path uses, so optimizer, schedules, and scalars all rewind
// together), and on an invariant violation rolls the run back to it,
// shrinking the optimizer step with exponential backoff on repeated trips
// within one divergence episode.
//
// Retry accounting is per episode: trips escalate the shrink factor until
// either the run survives recoveryWindow clean iterations (the cap is
// released and the budget resets) or the budget is exhausted and the run
// fails with guard.DivergenceError — after restoring the last good
// snapshot, so the caller never sees non-finite positions.
type guardian struct {
	en  *engine
	cfg guard.Config // MaxRetries resolved
	mon guard.Monitor
	lu  *LambdaUpdater
	res *Result
	o   *obs.Observer

	last *checkpoint.Snapshot // rollback target

	trips      int // violations in the current episode
	capUntil   int // iteration at which the current episode ends cleanly
	capActive  bool
	violations []guard.Violation // full history, across episodes

	// lastGoodStep is the most recent healthy BB/backtracking step, the
	// reference the Nesterov shrink cap is computed from (AlphaMax itself
	// defaults to +Inf, so capping a fraction of it would be a no-op).
	lastGoodStep float64
	baseAlphaMax float64
	baseLR       float64
}

func newGuardian(en *engine, cfg *guard.Config, lu *LambdaUpdater, res *Result, opt optimizer.Optimizer) *guardian {
	g := &guardian{
		en:  en,
		cfg: *cfg,
		lu:  lu,
		res: res,
		o:   en.cfg.Obs,
	}
	if g.cfg.MaxRetries == 0 {
		g.cfg.MaxRetries = defaultMaxRetries
	}
	switch v := opt.(type) {
	case *optimizer.Nesterov:
		g.baseAlphaMax = v.AlphaMax
	case *optimizer.Adam:
		g.baseLR = v.LR
	case *optimizer.Momentum:
		g.baseLR = v.LR
	}
	return g
}

func (g *guardian) emit(ev guard.Event) {
	if g.cfg.OnEvent != nil {
		g.cfg.OnEvent(ev)
	}
}

func (g *guardian) count(name string) {
	if g.o != nil {
		g.o.Metrics.Count(name, 1)
	}
}

// maybeSnapshot keeps the loop state at the top of iteration k (which the
// previous iteration's check vouched for) on the snapshotEvery cadence, and
// at the first guarded iteration. A replay after a rollback skips the
// capture: the kept snapshot already holds that iteration.
func (g *guardian) maybeSnapshot(k int, opt optimizer.Optimizer) {
	if g.last != nil && (k%snapshotEvery != 0 || g.last.Iter == k) {
		return
	}
	g.last = g.en.snapshot(k, opt, g.lu, g.res)
}

// check runs the per-iteration invariants after the optimizer step of
// iteration k. hpwl is the exact HPWL of the current positions, computed
// once per iteration by the placement loop and shared with trajectory
// recording. All reads are side-effect free with respect to the run, so an
// enabled-but-never-tripping guard leaves the trajectory bit-identical to a
// guardless run.
func (g *guardian) check(k int, obj, hpwl float64, opt optimizer.Optimizer) *guard.Violation {
	v := g.mon.Check(guard.Sample{Iter: k, Objective: obj, HPWL: hpwl, Pos: opt.Pos()})
	if nes, ok := opt.(*optimizer.Nesterov); ok && v == nil {
		if step := nes.LastStepSize(); step > 0 && !math.IsInf(step, 0) {
			g.lastGoodStep = step
		}
	}
	return v
}

// handle performs the rollback for a violation at iteration k. It returns
// the iteration index to resume from, or a *guard.DivergenceError once the
// episode's retry budget is exhausted (with the last good snapshot already
// restored, so the design holds finite positions either way).
func (g *guardian) handle(k int, v *guard.Violation, opt optimizer.Optimizer) (int, error) {
	g.trips++
	g.violations = append(g.violations, *v)
	g.res.GuardTrips++
	g.count("guard_trips")
	g.emit(guard.Event{Kind: guard.EventTrip, Iter: k, Retry: g.trips, Violation: v})
	logger := g.o.Logger()
	logger.Warn("guard: invariant tripped",
		"iter", k, "kind", string(v.Kind), "value", v.Value, "limit", v.Limit, "retry", g.trips)

	sp := g.o.StartPhase(obs.PhaseGuardRollback)
	defer sp.End()

	// Restore even when the budget is already exhausted: the caller gets
	// the last good state, never the diverged one.
	snap := g.last
	if err := g.en.restore(snap, opt, g.lu, g.res); err != nil {
		return 0, fmt.Errorf("placer: guard rollback to iteration %d: %w", snap.Iter, err)
	}
	g.mon.Rewind(snap.Iter)
	if g.trips > g.cfg.MaxRetries {
		g.count("guard_failures")
		g.emit(guard.Event{Kind: guard.EventFail, Iter: k, RestoredIter: snap.Iter, Retry: g.trips, Violation: v})
		logger.Error("guard: divergence, retry budget exhausted",
			"iter", k, "restored", snap.Iter, "retries", g.cfg.MaxRetries)
		return 0, &guard.DivergenceError{
			Violations: append([]guard.Violation(nil), g.violations...),
			Retries:    g.cfg.MaxRetries,
			LastGood:   snap.Iter,
		}
	}
	// Retry r replays at shrink^(r-1): the first rollback runs at full
	// step, so a pure transient (one poisoned evaluation) is absorbed with
	// zero distortion of the trajectory; persistent trouble backs off
	// exponentially.
	factor := math.Pow(shrink, float64(g.trips-1))
	g.applyCap(opt, factor)
	g.capUntil = snap.Iter + recoveryWindow
	g.res.GuardRollbacks++
	g.count("guard_rollbacks")
	g.emit(guard.Event{Kind: guard.EventRollback, Iter: k, RestoredIter: snap.Iter, Retry: g.trips, Shrink: factor, Violation: v})
	logger.Warn("guard: rolled back", "from", k, "to", snap.Iter, "shrink", factor, "retry", g.trips)
	return snap.Iter, nil
}

// applyCap shrinks the optimizer step by factor. It runs after Restore
// (which overwrites AlphaMax/LR from the snapshot), so the cap survives
// the rollback it belongs to.
func (g *guardian) applyCap(opt optimizer.Optimizer, factor float64) {
	g.capActive = factor < 1
	if !g.capActive {
		return
	}
	switch v := opt.(type) {
	case *optimizer.Nesterov:
		if g.lastGoodStep > 0 {
			v.AlphaMax = g.lastGoodStep * factor
		} else {
			// No healthy step observed yet (trip on the very first
			// iteration): nothing meaningful to cap against.
			g.capActive = false
		}
	case *optimizer.Adam:
		v.LR = g.baseLR * factor
	case *optimizer.Momentum:
		v.LR = g.baseLR * factor
	default:
		g.capActive = false
	}
}

// release closes a divergence episode once iteration k reaches the end of
// its recovery window: the step cap (if any) returns to its base value and
// the retry budget resets, so a later, unrelated transient gets the full
// budget again.
func (g *guardian) release(k int, opt optimizer.Optimizer) {
	if g.trips == 0 || k < g.capUntil {
		return
	}
	if g.capActive {
		switch v := opt.(type) {
		case *optimizer.Nesterov:
			v.AlphaMax = g.baseAlphaMax
		case *optimizer.Adam:
			v.LR = g.baseLR
		case *optimizer.Momentum:
			v.LR = g.baseLR
		}
		g.capActive = false
	}
	retries := g.trips
	g.trips = 0
	g.res.GuardRecoveries++
	g.count("guard_recoveries")
	g.emit(guard.Event{Kind: guard.EventRecover, Iter: k, Retry: retries})
	g.o.Logger().Info("guard: recovered", "iter", k, "episode_retries", retries)
}
