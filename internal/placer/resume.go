package placer

import (
	"hash/fnv"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/optimizer"
	"repro/internal/wirelength"
)

// CheckpointConfig enables periodic crash-safe snapshots of a run. Snapshots
// are written atomically into Dir under rotating names; together with the
// deterministic evaluation pipeline they allow a killed run to resume and
// finish with bit-identical positions and HPWL.
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

// scheduleName resolves the Config.Schedule enum: "" picks by the model's
// ParamKind, the paper's tangent schedule for the Moreau model and the
// ePlace gamma schedule otherwise.
func (cfg *Config) scheduleName() string {
	if cfg.Schedule != "" {
		return cfg.Schedule
	}
	if cfg.Model.ParamKind() == wirelength.ParamMoreauT {
		return "tangent"
	}
	return "gamma"
}

// fingerprint pins the run setup a snapshot belongs to. Every field affects
// the trajectory, so resume is refused unless all of them match.
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
		Model:         en.cfg.Model.Name(),
		Optimizer:     en.cfg.optimizerName(),
		Seed:          en.cfg.Seed,
		TargetDensity: en.targetDensity,
		RegionXL:      d.Region.XL,
		RegionYL:      d.Region.YL,
		RegionXH:      d.Region.XH,
		RegionYH:      d.Region.YH,
		FreezeHash:    FreezeHash(en.cfg.Freeze),
		Schedule:      en.cfg.scheduleName(),
		Precondition:  en.cfg.Precondition,
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
func (en *engine) snapshot(iter int, opt optimizer.Optimizer, lu *LambdaUpdater, res *Result) *checkpoint.Snapshot {
	evals := iter
	if nes, ok := opt.(*optimizer.Nesterov); ok {
		evals = nes.EvalCount()
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
		Pos:         slices.Clone(opt.Pos()),
		Opt:         opt.Snapshot(),
		Trajectory:  slices.Clone(res.Trajectory),
	}
}

// restore rewinds the run to a snapshot of the same setup, taken earlier in
// this run (a guard rollback) or by an earlier run (a resume): the optimizer,
// the smoothing parameter, density weight, overflow and energy, the
// lambda-updater state, the recorded trajectory and the iteration count.
// The kept evaluation is dropped: it may hold a transient fault a rollback
// is meant to undo.
func (en *engine) restore(snap *checkpoint.Snapshot, opt optimizer.Optimizer, lu *LambdaUpdater, res *Result) error {
	if err := opt.Restore(snap.Opt); err != nil {
		return err
	}
	en.param = snap.Param
	en.lambda = snap.Lambda
	en.overflow = snap.Overflow
	en.lastEnergy = snap.LastEnergy
	en.key = en.key[:0]
	lu.RestoreState(snap.LambdaSched)
	en.unpack(opt.Pos())
	res.Trajectory = append(res.Trajectory[:0], snap.Trajectory...)
	res.Iterations = snap.Iter
	return nil
}
