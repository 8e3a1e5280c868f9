// Package core is the top-level facade of the placement library: it wires
// global placement (internal/placer, with any wirelength model including the
// paper's Moreau-envelope model), Abacus legalization and detailed placement
// into the three-stage flow the paper's tables evaluate (GP -> LG -> DP),
// reporting the LGWL/DPWL/runtime triple of Tables II and III.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/detailed"
	"repro/internal/legalize"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/placer"
	"repro/internal/wirelength"
)

// FlowConfig controls a full placement flow.
type FlowConfig struct {
	// ModelName selects the wirelength model: "LSE", "WA", "BiG_CHKS",
	// "BiG_WA", "ME" (the paper's Moreau envelope), or "HPWL".
	ModelName string
	// GP overrides the global placement configuration; when the Model
	// field is nil it is filled in from ModelName.
	GP placer.Config
	// UseTetris selects the greedy reference legalizer instead of Abacus
	// (used for the NTUPlace3-substitute reference column of Table II).
	UseTetris bool
	// SkipDetailed stops after legalization.
	SkipDetailed bool
	// GPOnly stops after global placement (no legalization or detailed
	// placement); LGWL/DPWL then repeat GPWL and no legality check runs.
	GPOnly bool
	// DP overrides detailed placement options.
	DP detailed.Options
}

// DefaultFlowConfig returns the standard flow for a model name.
func DefaultFlowConfig(modelName string) FlowConfig {
	return FlowConfig{ModelName: modelName}
}

// FlowResult carries the per-stage metrics of one flow run.
type FlowResult struct {
	Design string
	Model  string

	// GPWL, LGWL, DPWL are the exact HPWL after global placement,
	// legalization, and detailed placement (the table columns).
	GPWL, LGWL, DPWL float64
	// Overflow is the final global placement density overflow.
	Overflow float64
	// GPIters counts global placement iterations.
	GPIters int
	// Capped reports that global placement stopped at its iteration cap
	// with the overflow above its target (see placer.Result.Capped).
	Capped bool `json:",omitempty"`
	// GPSeconds, LGSeconds, DPSeconds, TotalSeconds are stage runtimes
	// (monotonic-clock durations); GPSetupSeconds and GPLoopSeconds split
	// the global placement stage into setup and main-loop time.
	GPSeconds, LGSeconds, DPSeconds, TotalSeconds float64
	GPSetupSeconds, GPLoopSeconds                 float64
	// Trajectory is the recorded HPWL-vs-overflow curve (Fig. 3) when
	// GP.RecordEvery was set.
	Trajectory []placer.TrajectoryPoint
	// LegalizationOK reports whether the final placement passed the
	// legality check.
	LegalizationOK bool
	// ResumedFrom is the snapshot iteration a warm-started run continued
	// from (0 for a cold start).
	ResumedFrom int
	// GuardTrips/GuardRollbacks/GuardRecoveries count numerical-health guard
	// activity during global placement (zero unless GP.Guard was set).
	GuardTrips      int
	GuardRollbacks  int
	GuardRecoveries int
}

// RunFlow executes global placement, legalization, and detailed placement
// on d (in place) and returns the stage metrics.
func RunFlow(d *netlist.Design, cfg FlowConfig) (*FlowResult, error) {
	return RunFlowContext(context.Background(), d, cfg)
}

// RunFlowContext is RunFlow with cancellation: the context is threaded into
// global placement (checked every iteration) and re-checked between stages,
// so a cancelled flow returns ctx.Err() promptly.
func RunFlowContext(ctx context.Context, d *netlist.Design, cfg FlowConfig) (*FlowResult, error) {
	start := time.Now()
	gpCfg := cfg.GP
	if gpCfg.Model == nil {
		if cfg.ModelName == "" {
			return nil, fmt.Errorf("core: flow needs a model (set ModelName or GP.Model)")
		}
		m, err := wirelength.ByName(cfg.ModelName)
		if err != nil {
			return nil, err
		}
		// The zero Config is usable: placer.Place fills numeric defaults.
		gpCfg.Model = m
	}
	res := &FlowResult{Design: d.Name, Model: gpCfg.Model.Name()}

	gp, err := placer.PlaceContext(ctx, d, gpCfg)
	if err != nil {
		return nil, fmt.Errorf("core: global placement: %w", err)
	}
	res.GPWL = gp.HPWL
	res.Overflow = gp.Overflow
	res.GPIters = gp.Iterations
	res.Capped = gp.Capped
	res.GPSeconds = gp.Seconds
	res.GPSetupSeconds = gp.SetupSeconds
	res.GPLoopSeconds = gp.LoopSeconds
	res.Trajectory = gp.Trajectory
	res.ResumedFrom = gp.ResumedFrom
	res.GuardTrips = gp.GuardTrips
	res.GuardRollbacks = gp.GuardRollbacks
	res.GuardRecoveries = gp.GuardRecoveries

	if cfg.GPOnly {
		res.LGWL = gp.HPWL
		res.DPWL = gp.HPWL
		res.TotalSeconds = time.Since(start).Seconds()
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: cancelled before legalization: %w", err)
	}
	o := cfg.GP.Obs
	logger := o.Logger()
	if o != nil {
		// Post-GP spans are flow-level, not tied to an optimizer iteration.
		o.Trace.SetIter(-1)
	}

	lgStart := time.Now()
	sp := o.StartPhase(obs.PhaseLegalize)
	if cfg.UseTetris {
		lg, err := legalize.Tetris(d)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("core: legalization: %w", err)
		}
		res.LGWL = lg.HPWL
	} else {
		lg, err := legalize.Abacus(d, legalize.Options{SiteAlign: true})
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("core: legalization: %w", err)
		}
		res.LGWL = lg.HPWL
	}
	sp.End()
	res.LGSeconds = time.Since(lgStart).Seconds()
	logger.Info("lg: done", "hpwl", res.LGWL, "seconds", res.LGSeconds)

	if cfg.SkipDetailed {
		res.DPWL = res.LGWL
	} else {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: cancelled before detailed placement: %w", err)
		}
		dpStart := time.Now()
		sp = o.StartPhase(obs.PhaseDetailed)
		dp, err := detailed.Place(d, cfg.DP)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("core: detailed placement: %w", err)
		}
		res.DPWL = dp.HPWL
		res.DPSeconds = time.Since(dpStart).Seconds()
		logger.Info("dp: done", "hpwl", res.DPWL, "seconds", res.DPSeconds)
	}

	res.LegalizationOK = legalize.CheckLegal(d) == nil
	res.TotalSeconds = time.Since(start).Seconds()
	return res, nil
}
