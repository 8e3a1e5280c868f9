package placer

import (
	"fmt"
	"hash/fnv"

	"repro/perfbench/refgp/checkpoint"
	"repro/perfbench/refgp/optimizer"
)

// CheckpointConfig enables periodic crash-safe snapshots of a run. Snapshots
// are written atomically into Dir under rotating names; together with the
// deterministic evaluation pipeline they allow a killed run to resume and
// finish with bit-identical positions and HPWL (same worker count required).
type CheckpointConfig struct {
	// Every writes a snapshot after each that many completed iterations
	// (0 disables periodic checkpointing; Validate rejects negatives).
	Every int
	// Dir is the snapshot directory, created on first write. Required when
	// Every > 0. When set, a final snapshot is also written if the run is
	// cancelled or stopped early by the OnIteration hook, so the freshest
	// state survives a graceful drain.
	Dir string
	// Keep bounds how many snapshots are retained in Dir (default 3).
	Keep int
}

// keepOrDefault resolves the retention count.
func (c CheckpointConfig) keepOrDefault() int {
	if c.Keep > 0 {
		return c.Keep
	}
	return 3
}

// optimizerName canonicalizes the Config.Optimizer enum for fingerprints.
func (cfg *Config) optimizerName() string {
	if cfg.Optimizer == "" {
		return "nesterov"
	}
	return cfg.Optimizer
}

// fingerprint pins the run setup a snapshot belongs to. Every field affects
// either the trajectory itself or its bit-level determinism, so resume is
// refused unless all of them match.
func (en *engine) fingerprint() checkpoint.Fingerprint {
	d := en.d
	return checkpoint.Fingerprint{
		Design:        d.Name,
		NumCells:      d.NumCells(),
		NumNets:       d.NumNets(),
		NumPins:       d.NumPins(),
		NumMovable:    len(en.mov),
		NumFillers:    en.numFillers,
		GridX:         en.grid.Nx,
		GridY:         en.grid.Ny,
		Workers:       en.workers,
		Model:         en.cfg.Model.Name(),
		Optimizer:     en.cfg.optimizerName(),
		Seed:          en.cfg.Seed,
		TargetDensity: en.targetDensity,
		RegionXL:      d.Region.XL,
		RegionYL:      d.Region.YL,
		RegionXH:      d.Region.XH,
		RegionYH:      d.Region.YH,
		FreezeHash:    FreezeHash(en.cfg.Freeze),
	}
}

// FreezeHash condenses a partial-release mask into the fingerprint: FNV-64a
// over the mask bits, 0 for a full run (nil or all-false mask). Exported so
// the ecocache layer can label warm-start plans the same way snapshots do.
func FreezeHash(freeze []bool) uint64 {
	any := false
	for _, f := range freeze {
		if f {
			any = true
			break
		}
	}
	if !any {
		return 0
	}
	h := fnv.New64a()
	buf := make([]byte, len(freeze))
	for i, f := range freeze {
		if f {
			buf[i] = 1
		}
	}
	h.Write(buf)
	return h.Sum64()
}

// snapshot captures the loop state at an iteration boundary: iter is the
// number of completed iterations, i.e. the next iteration index to run.
func (en *engine) snapshot(iter int, opt optimizer.Optimizer, lu *LambdaUpdater, res *Result) (*checkpoint.Snapshot, error) {
	st, ok := opt.(optimizer.Stateful)
	if !ok {
		return nil, fmt.Errorf("placer: optimizer %T does not support checkpointing", opt)
	}
	evals := iter
	if nes, ok := opt.(*optimizer.Nesterov); ok {
		evals = nes.EvalCount()
	}
	traj := make([]checkpoint.TrajectoryPoint, len(res.Trajectory))
	for i, p := range res.Trajectory {
		traj[i] = checkpoint.TrajectoryPoint{
			Iter: p.Iter, Overflow: p.Overflow, HPWL: p.HPWL,
			Objective: p.Objective, Param: p.Param, Lambda: p.Lambda,
		}
	}
	return &checkpoint.Snapshot{
		Fingerprint: en.fingerprint(),
		Iter:        iter,
		Evaluations: evals,
		Param:       en.param,
		Lambda:      en.lambda,
		Overflow:    en.overflow,
		LastEnergy:  en.lastEnergy,
		LambdaSched: lu.State(),
		Pos:         append([]float64(nil), opt.Pos()...),
		Opt:         st.Snapshot(),
		Trajectory:  traj,
	}, nil
}

// restore warm-starts the engine from a snapshot: positions, smoothing
// parameter, density weight, lambda-updater state, and the last observed
// overflow/energy. The optimizer is restored separately (it is constructed
// after the engine). Fails with checkpoint.ErrMismatch when the snapshot
// came from a different run setup.
func (en *engine) restore(pos []float64, snap *checkpoint.Snapshot, lu *LambdaUpdater) error {
	if err := en.fingerprint().Match(snap.Fingerprint); err != nil {
		return fmt.Errorf("placer: resume: %w", err)
	}
	if len(snap.Pos) != len(pos) {
		return fmt.Errorf("placer: resume: %w: position vector has %d entries, run needs %d",
			checkpoint.ErrCorrupt, len(snap.Pos), len(pos))
	}
	copy(pos, snap.Pos)
	en.param = snap.Param
	en.lambda = snap.Lambda
	en.overflow = snap.Overflow
	en.lastEnergy = snap.LastEnergy
	lu.RestoreState(snap.LambdaSched)
	en.unpack(pos)
	return nil
}

// resumeTrajectory converts the snapshot's recorded trajectory back into
// placer points, so the resumed run's final trajectory matches the
// uninterrupted one.
func resumeTrajectory(snap *checkpoint.Snapshot) []TrajectoryPoint {
	if len(snap.Trajectory) == 0 {
		return nil
	}
	out := make([]TrajectoryPoint, len(snap.Trajectory))
	for i, p := range snap.Trajectory {
		out[i] = TrajectoryPoint{
			Iter: p.Iter, Overflow: p.Overflow, HPWL: p.HPWL,
			Objective: p.Objective, Param: p.Param, Lambda: p.Lambda,
		}
	}
	return out
}
