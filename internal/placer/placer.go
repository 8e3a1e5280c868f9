// Package placer implements ePlace-style analytical global placement: the
// wirelength model (pluggable; the paper compares LSE, WA, BiG and its
// Moreau-envelope model) plus the electrostatic density penalty, minimized
// by Nesterov's method with Barzilai-Borwein step prediction.
//
// The objective is Eq. (1) of the paper,
//
//	min_{x,y}  sum_e W_e(x, y) + lambda * D(x, y),
//
// with the smoothing parameter driven by the density overflow of the point
// being evaluated (the ePlace gamma schedule for exponential models, the
// paper's tangent t schedule for the Moreau model) and lambda driven by
// Eq. (15).
package placer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/density"
	"repro/internal/guard"
	"repro/internal/moreau"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/quadratic"
	"repro/internal/wirelength"
)

// Config controls a global placement run.
type Config struct {
	// Model is the differentiable wirelength model (required).
	Model wirelength.Model
	// GridX, GridY are the density grid dimensions (powers of two);
	// zero selects them automatically from the design size.
	GridX, GridY int
	// MaxIters caps global placement iterations (0 selects
	// DefaultMaxIters; Validate rejects negatives).
	MaxIters int
	// StopOverflow ends global placement once the density overflow drops
	// below it (0 selects DefaultStopOverflow; Validate rejects negative and
	// non-finite values).
	StopOverflow float64
	// NoFillers disables whitespace filler cell insertion (fillers are
	// on by default).
	NoFillers bool
	// Seed randomizes the initial placement jitter.
	Seed int64
	// RecordEvery records a trajectory point (exact HPWL vs overflow)
	// every that many iterations; 0 disables recording.
	RecordEvery int
	// Init selects the initial placement: "center" (the ePlace default,
	// center with jitter; also selected by ""), "keep" (the design's input
	// positions), or "quadratic" (Bound2Bound quadratic placement,
	// Kraftwerk2-style).
	Init string
	// Optimizer selects the first-order method: "nesterov" (default),
	// "adam", or "momentum" (ablation study).
	Optimizer string
	// Schedule overrides the smoothing-parameter schedule: "" picks by
	// the model's ParamKind, "gamma" forces the ePlace schedule,
	// "tangent" forces the paper's Eq. 14 schedule (ablation study).
	Schedule string
	// Precondition divides each cell's gradient by (#pins + lambda*area),
	// the DREAMPlace Jacobi preconditioner, equalizing step scales
	// between hub cells and leaf cells.
	Precondition bool
	// Workers is ignored apart from validation, which still rejects a
	// negative value: a placement runs its whole evaluation on the
	// caller's goroutine. Run placements concurrently for parallelism.
	//
	// Deprecated: has no effect; kept because existing callers set it.
	Workers int
	// Obs, when non-nil, receives the run's observability streams:
	// structured logs, per-phase trace spans (one per engine phase per
	// iteration), and phase and evaluation metrics. A nil Obs — or an Obs with
	// neither tracer nor metrics — costs one pointer check per phase and
	// leaves the hot path unchanged.
	Obs *obs.Observer
	// OnIteration, when non-nil, is invoked after every optimizer
	// iteration with the current trajectory sample (exact HPWL included).
	// Returning false stops the run early; the partial result is returned
	// with a nil error and Result.Stopped set. The hook is called from the
	// placement goroutine, so it must be fast and must not block.
	OnIteration func(TrajectoryPoint) bool
	// Checkpoint enables periodic crash-safe snapshots of the run state
	// (see CheckpointConfig in resume.go).
	Checkpoint CheckpointConfig
	// ResumeDir warm-starts the run from the newest snapshot in this
	// directory whose config fingerprint matches the run (same design,
	// grid, model, optimizer, seed), scanning backwards past corrupt or
	// mismatched files; when nothing matches the run cold-starts (no
	// error). A resumed run finishes bit-identical to an uninterrupted one.
	ResumeDir string
	// Freeze, when non-nil, must have one entry per design cell and marks
	// movable cells that this run must NOT move: an ECO warm start releases
	// only the perturbed blast region and freezes the rest. Frozen cells
	// are stamped into the density grid as fixed obstacles (so released
	// cells avoid them), excluded from the optimization vector and the
	// overflow normalization, and their nets drop out of the wirelength
	// evaluation unless a released cell shares the net (the model then runs
	// on a subset view of the netlist that shares the position arrays).
	// Entries for non-movable cells are ignored. Typically combined with
	// Init "keep" so the released cells start from the cached placement.
	Freeze []bool
	// Guard, when non-nil, enables the divergence guard: per-iteration
	// numerical-health checks (finite positions, finite objective, HPWL
	// growth vs. a trailing window) with automatic rollback to the last
	// good in-memory snapshot, step shrinking with exponential backoff on
	// repeated trips, and a typed guard.DivergenceError once the retry
	// budget is exhausted.
	// &guard.Config{} selects all defaults. A nil Guard costs one pointer
	// check per iteration and leaves results bit-identical.
	Guard *guard.Config
}

// The defaults of the stopping knobs, the only place they are written.
const (
	// DefaultMaxIters is the iteration cap, set well above the iteration
	// counts at which the paper's flows reach DefaultStopOverflow so that it
	// does not bind (see experiments.Options.MaxIters).
	DefaultMaxIters = 2500
	// DefaultStopOverflow is the usual ePlace density overflow target.
	DefaultStopOverflow = 0.07
)

// DefaultConfig returns the standard configuration for a model.
func DefaultConfig(m wirelength.Model) Config {
	return Config{
		Model:        m,
		MaxIters:     DefaultMaxIters,
		StopOverflow: DefaultStopOverflow,
		Seed:         1,
	}
}

// TrajectoryPoint is one sample of the Fig. 3 curve: exact HPWL against
// density overflow during global placement. Snapshots record it as is.
type TrajectoryPoint = checkpoint.TrajectoryPoint

// Result summarizes a global placement run. All durations are measured with
// the monotonic clock (time.Since on a single start reading), so they stay
// correct across wall-clock adjustments.
type Result struct {
	HPWL        float64 // exact HPWL of the final placement
	Overflow    float64 // final density overflow
	Iterations  int
	Evaluations int // objective/gradient evaluations (incl. backtracking)
	// Seconds is the total runtime; SetupSeconds covers everything before
	// the first optimizer iteration (grid, fillers, initial placement,
	// lambda calibration) and LoopSeconds the main Nesterov loop.
	Seconds      float64
	SetupSeconds float64
	LoopSeconds  float64
	// Stopped reports that the OnIteration hook ended the run early.
	Stopped bool
	// Capped reports that the run ended at Config.MaxIters with the density
	// overflow not below Config.StopOverflow. A hook stop, a cancellation
	// and a guard failure never set it.
	Capped bool
	// ResumedFrom is the iteration the run was warm-started at via
	// Config.ResumeDir (0 for a cold start).
	ResumedFrom int
	// Checkpoints counts the snapshots written during this run.
	Checkpoints int
	// ReleasedCells and FrozenCells report the partial-release split of an
	// ECO warm start: movable cells the optimizer moved vs. cells pinned by
	// Config.Freeze (FrozenCells is 0 for a full run).
	ReleasedCells int
	FrozenCells   int
	// GuardTrips, GuardRollbacks, and GuardRecoveries count divergence-
	// guard activity (all zero when Config.Guard is nil or the run stayed
	// healthy): invariant violations detected, successful rollbacks, and
	// episodes closed cleanly after their recovery window.
	GuardTrips      int
	GuardRollbacks  int
	GuardRecoveries int
	Trajectory      []TrajectoryPoint
}

// engine carries the mutable state of one global placement run.
type engine struct {
	d   *netlist.Design
	cfg Config
	// wlD is the design view the wirelength model evaluates: d itself for a
	// full run, or a net-subset view (sharing d's position arrays) holding
	// only nets with at least one released pin when Config.Freeze is set.
	wlD       *netlist.Design
	mov       []int // released movable cell indices
	numFrozen int   // movable cells pinned by Config.Freeze

	grid *density.Grid
	elec *density.Electro
	// fp stamps every entry's smoothed footprint and gathers the field over
	// it, in the same order as halfW/halfH.
	fp *density.Footprints

	// project clamps a position vector into the placeable region.
	project func([]float64)

	// Filler cells: anonymous movable whitespace charges.
	fillerW, fillerH float64
	numFillers       int

	// Per-position-entry half-dimensions for projection and stamping:
	// entries 0..n-1 are cells (in mov order), n..n+numFillers-1 fillers.
	halfW, halfH []float64

	wgx, wgy []float64 // per-cell wirelength gradient scratch

	movableArea float64
	// overflowArea normalizes the density overflow: the full movable area
	// including frozen cells. A partial release otherwise divides the
	// design's residual overlap by the small released area, demanding a
	// density far beyond the parent placement's equilibrium and over-
	// spreading the released cells. Equals movableArea for a full run.
	overflowArea  float64
	targetDensity float64

	// schedule maps a density overflow to the smoothing parameter.
	schedule func(phi float64) float64

	param    float64 // smoothing parameter at the last evaluated point
	lambda   float64
	overflow float64

	lastEnergy float64

	// Both halves of the objective at the point key (see eval), kept so an
	// evaluation at the bit-identical point skips them: the position-only
	// half (see density) and the wirelength value and gradient (wl and the
	// wgx/wgy lanes) at that point's own smoothing parameter. key is empty
	// when nothing is kept.
	key                    []float64
	fx, fy                 []float64 // field sampled per position entry
	denOverflow, denEnergy float64
	wl                     float64

	// evalFn is eval as a function value, built once: a method value
	// created for every optimizer step would allocate.
	evalFn func(pos, grad []float64) float64
}

// isFrozen reports whether cell i is pinned by Config.Freeze.
func (en *engine) isFrozen(i int) bool {
	return en.cfg.Freeze != nil && en.cfg.Freeze[i]
}

// autoGrid picks a power-of-two grid dimension from the design size.
func autoGrid(numMovable int) int {
	g := 32
	for g*g < numMovable && g < 512 {
		g *= 2
	}
	return g
}

// isPow2 reports whether n is a positive power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Validate checks cfg for errors that would otherwise surface as panics or
// late failures deep inside a run: a nil model, grid dimensions the spectral
// density solver cannot handle, unknown enum strings, and negative or
// non-finite counts and thresholds.
func (cfg *Config) Validate() error {
	if cfg.Model == nil {
		return fmt.Errorf("placer: config has no wirelength model")
	}
	if cfg.GridX != 0 && !isPow2(cfg.GridX) {
		return fmt.Errorf("placer: GridX %d must be a positive power of two (or 0 for auto)", cfg.GridX)
	}
	if cfg.GridY != 0 && !isPow2(cfg.GridY) {
		return fmt.Errorf("placer: GridY %d must be a positive power of two (or 0 for auto)", cfg.GridY)
	}
	switch cfg.Optimizer {
	case "", "nesterov", "adam", "momentum":
	default:
		return fmt.Errorf("placer: unknown optimizer %q (want nesterov, adam, or momentum)", cfg.Optimizer)
	}
	switch cfg.Init {
	case "", "center", "keep", "quadratic":
	default:
		return fmt.Errorf("placer: unknown init %q (want center, keep, or quadratic)", cfg.Init)
	}
	switch cfg.Schedule {
	case "", "gamma", "tangent":
	default:
		return fmt.Errorf("placer: unknown schedule %q (want gamma or tangent)", cfg.Schedule)
	}
	if cfg.MaxIters < 0 {
		return fmt.Errorf("placer: MaxIters %d must be >= 0", cfg.MaxIters)
	}
	if cfg.StopOverflow < 0 || math.IsNaN(cfg.StopOverflow) || math.IsInf(cfg.StopOverflow, 0) {
		return fmt.Errorf("placer: StopOverflow %g must be finite and >= 0", cfg.StopOverflow)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("placer: Workers %d must be >= 0", cfg.Workers)
	}
	if cfg.Checkpoint.Every < 0 {
		return fmt.Errorf("placer: Checkpoint.Every %d must be >= 0", cfg.Checkpoint.Every)
	}
	if cfg.Checkpoint.Keep < 0 {
		return fmt.Errorf("placer: Checkpoint.Keep %d must be >= 0", cfg.Checkpoint.Keep)
	}
	if cfg.Checkpoint.Every > 0 && cfg.Checkpoint.Dir == "" {
		return fmt.Errorf("placer: Checkpoint.Every is set but Checkpoint.Dir is empty")
	}
	if cfg.Guard != nil {
		if err := cfg.Guard.Validate(); err != nil {
			return fmt.Errorf("placer: %w", err)
		}
	}
	return nil
}

// newEngine builds the run state of one global placement: the density grid
// and spectral solver, fillers, per-entry half dimensions, and the
// projection operator. Everything a snapshot's fingerprint names is built
// here, so a resume can look its snapshot up before, and instead of,
// building the initial positions (initialPos). It is the setup phase of
// PlaceContext, split out so tests and benchmarks can drive engine.eval
// directly. cfg must already be valid and carry its numeric defaults.
func newEngine(d *netlist.Design, cfg Config) (*engine, error) {
	en := &engine{d: d, wlD: d, cfg: cfg, mov: d.MovableIndices()}
	if cfg.Freeze != nil {
		if len(cfg.Freeze) != d.NumCells() {
			return nil, fmt.Errorf("placer: Freeze has %d entries, design has %d cells", len(cfg.Freeze), d.NumCells())
		}
		released := en.mov[:0]
		for _, c := range en.mov {
			if cfg.Freeze[c] {
				en.numFrozen++
			} else {
				released = append(released, c)
			}
		}
		en.mov = released
	}
	if len(en.mov) == 0 {
		return nil, fmt.Errorf("placer: design %q has no movable cells", d.Name)
	}
	if en.numFrozen > 0 && cfg.Init == "quadratic" {
		// Quadratic placement moves every movable cell, frozen ones too, and
		// a snapshot does not record frozen cells, so a resume could not
		// rebuild them.
		return nil, fmt.Errorf("placer: Init \"quadratic\" would move the cells Freeze pins")
	}
	if en.numFrozen > 0 {
		// Restrict the wirelength model to nets a released cell can still
		// change; frozen-only nets are constant and would only add noise to
		// the objective. The subset shares d's position backing arrays, so
		// unpack keeps it current for free.
		keep := make([]bool, d.NumNets())
		for _, c := range en.mov {
			for _, pi := range d.PinsOfCell(c) {
				keep[d.Pins[pi].Net] = true
			}
		}
		en.wlD = d.NetSubset(keep)
	}

	gx, gy := cfg.GridX, cfg.GridY
	if gx == 0 {
		gx = autoGrid(len(en.mov))
	}
	if gy == 0 {
		gy = gx
	}
	en.grid = density.NewGrid(d.Region, gx, gy)
	en.elec = density.NewElectro(en.grid)
	en.elec.Obs = cfg.Obs

	// Validate has rejected unknown schedules; "" picks by the model.
	if cfg.scheduleName() == "tangent" {
		en.schedule = TSchedule{T0: t0, Delta: delta, BinW: en.grid.BinW, BinH: en.grid.BinH}.At
	} else {
		en.schedule = GammaSchedule{Gamma0: gamma0, BinW: en.grid.BinW, BinH: en.grid.BinH}.At
	}

	en.targetDensity = d.TargetDensity
	if en.targetDensity <= 0 || en.targetDensity > 1 {
		en.targetDensity = 1
	}

	for _, c := range en.mov {
		en.movableArea += d.Cells[c].Area()
	}
	en.overflowArea = en.movableArea
	for i, c := range d.Cells {
		if c.Kind.Moves() && en.isFrozen(i) {
			en.overflowArea += c.Area()
		}
	}
	// Stamp fixed cells once; frozen movable cells are obstacles too.
	for i, c := range d.Cells {
		if (c.Kind.Moves() && !en.isFrozen(i)) || c.Area() == 0 {
			continue
		}
		r := d.CellRect(i)
		en.grid.StampFixedRect(r.XL, r.YL, r.XH, r.YH, 1)
	}

	en.setupFillers()

	n := len(en.mov) + en.numFillers
	en.halfW = make([]float64, n)
	en.halfH = make([]float64, n)
	for i, c := range en.mov {
		en.halfW[i] = d.Cells[c].W / 2
		en.halfH[i] = d.Cells[c].H / 2
	}
	for f := 0; f < en.numFillers; f++ {
		en.halfW[len(en.mov)+f] = en.fillerW / 2
		en.halfH[len(en.mov)+f] = en.fillerH / 2
	}
	en.fp = density.NewFootprints(en.grid, en.halfW, en.halfH)

	en.project = func(p []float64) {
		r := d.Region
		for i := 0; i < n; i++ {
			lo, hi := r.XL+en.halfW[i], r.XH-en.halfW[i]
			if hi < lo {
				lo, hi = (r.XL+r.XH)/2, (r.XL+r.XH)/2
			}
			if p[i] < lo {
				p[i] = lo
			} else if p[i] > hi {
				p[i] = hi
			}
			lo, hi = r.YL+en.halfH[i], r.YH-en.halfH[i]
			if hi < lo {
				lo, hi = (r.YL+r.YH)/2, (r.YL+r.YH)/2
			}
			if p[n+i] < lo {
				p[n+i] = lo
			} else if p[n+i] > hi {
				p[n+i] = hi
			}
		}
	}
	en.wgx = make([]float64, d.NumCells())
	en.wgy = make([]float64, d.NumCells())
	en.fx = make([]float64, n)
	en.fy = make([]float64, n)
	en.evalFn = en.eval
	return en, nil
}

// initialPos fills pos with the projected positions a cold start begins from.
func (en *engine) initialPos(pos []float64) error {
	d, cfg := en.d, en.cfg
	n := len(en.mov) + en.numFillers
	// Initial placement: "center" (also "") jitters around the region
	// center; "keep" and "quadratic" start from the design's positions,
	// which quadratic placement first overwrites.
	center := cfg.Init == "" || cfg.Init == "center"
	if cfg.Init == "quadratic" {
		if err := quadratic.PlaceB2B(d, quadratic.B2BOptions{}); err != nil {
			return fmt.Errorf("placer: quadratic init: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cx, cy := d.Region.Center().X, d.Region.Center().Y
	jx := d.Region.W() * 0.001
	jy := d.Region.H() * 0.001
	for i, c := range en.mov {
		if center {
			pos[i] = cx + rng.NormFloat64()*jx
			pos[n+i] = cy + rng.NormFloat64()*jy
		} else {
			pos[i] = d.CenterX(c)
			pos[n+i] = d.CenterY(c)
		}
	}
	for f := 0; f < en.numFillers; f++ {
		i := len(en.mov) + f
		if en.numFrozen > 0 {
			// Partial release: the placement is already spread out, so
			// center-clustered fillers would spend the whole (short) warm
			// run migrating outward. Scatter them uniformly instead — the
			// whitespace they model is distributed across the die.
			pos[i] = d.Region.XL + rng.Float64()*d.Region.W()
			pos[n+i] = d.Region.YL + rng.Float64()*d.Region.H()
		} else {
			pos[i] = cx + rng.NormFloat64()*jx
			pos[n+i] = cy + rng.NormFloat64()*jy
		}
	}

	en.project(pos)
	return nil
}

// Place runs global placement on d (in place) and returns the result.
func Place(d *netlist.Design, cfg Config) (*Result, error) {
	return PlaceContext(context.Background(), d, cfg)
}

// PlaceContext is Place with cancellation: the context is checked once per
// optimizer iteration, and when it is cancelled (or its deadline passes) the
// run stops promptly, returning the partial Result alongside ctx.Err().
func PlaceContext(ctx context.Context, d *netlist.Design, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxIters == 0 {
		cfg.MaxIters = DefaultMaxIters
	}
	if cfg.StopOverflow == 0 {
		cfg.StopOverflow = DefaultStopOverflow
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("placer: %w", err)
	}
	o := cfg.Obs
	logger := o.Logger()
	// With metrics enabled, rebuild a named model with a branch-statistics
	// counter. A custom (unnamed) model stays untouched and uncounted.
	var mstats *moreau.Stats
	if o != nil && o.Metrics != nil {
		mstats = &moreau.Stats{}
		if m, err := wirelength.New(cfg.Model.Name(), mstats); err == nil {
			cfg.Model = m
		} else {
			mstats = nil
		}
	}

	start := time.Now()
	setup := o.StartPhase(obs.PhaseSetup)
	en, err := newEngine(d, cfg)
	if err != nil {
		return nil, err
	}

	var snap *checkpoint.Snapshot
	if cfg.ResumeDir != "" {
		fp := en.fingerprint()
		found, path, err := checkpoint.LoadLatestMatching(cfg.ResumeDir, func(s *checkpoint.Snapshot) error {
			return fp.Match(s.Fingerprint)
		})
		switch {
		case err == nil:
			snap = found
			logger.Info("gp: resume dir matched snapshot", "path", path, "iter", snap.Iter)
		case errors.Is(err, checkpoint.ErrNoSnapshot):
			logger.Info("gp: resume dir has no matching snapshot; cold start", "dir", cfg.ResumeDir)
		default:
			return nil, fmt.Errorf("placer: resume dir: %w", err)
		}
	}
	pos := make([]float64, 2*(len(en.mov)+en.numFillers))
	if snap == nil { // a resume takes every position from the snapshot
		if err := en.initialPos(pos); err != nil {
			return nil, err
		}
	}

	var opt optimizer.Optimizer
	binScale := en.grid.BinW + en.grid.BinH
	switch cfg.optimizerName() { // Validate has rejected unknown names
	case "adam":
		// Adam's normalized step moves each coordinate by up to LR per
		// iteration; half a bin keeps spreading stable.
		opt = optimizer.NewAdam(pos, 0.25*binScale, en.project)
	case "momentum":
		opt = optimizer.NewMomentum(pos, 1e-2*binScale, 0.9, en.project)
	default:
		opt = optimizer.NewNesterov(pos, 1e-3*binScale, en.project)
	}
	lu := NewLambdaUpdater()
	res := &Result{ReleasedCells: len(en.mov), FrozenCells: en.numFrozen}
	var prevSetup, prevLoop float64
	if snap != nil {
		// Warm start: skip initialization and lambda calibration entirely;
		// every scheduled quantity comes from the snapshot.
		if err := en.restore(snap, opt, lu, res); err != nil {
			return nil, fmt.Errorf("placer: resume: %w", err)
		}
		res.ResumedFrom = snap.Iter
		prevSetup = snap.SetupSeconds
		prevLoop = snap.LoopSeconds
		logger.Info("gp: resuming from checkpoint", "design", d.Name, "iter", snap.Iter, "overflow", en.overflow)
	} else {
		// Measure the initial overflow and calibrate lambda0 from the ratio
		// of wirelength to density gradient magnitudes (ePlace). The kept
		// evaluation also serves the optimizer's first evaluation.
		en.unpack(pos)
		en.density(pos)
		en.overflow = en.denOverflow
		en.param = en.schedule(en.overflow)
		lambda0 := en.calibrateLambda0()
		lu.Prime(lambda0, en.denEnergy)
		en.lambda = lu.Lambda()
	}
	setup.End()
	logger.Info("gp: starting",
		"design", d.Name, "cells", d.NumCells(), "nets", d.NumNets(),
		"model", cfg.Model.Name(), "optimizer", cfg.optimizerName(),
		"grid", fmt.Sprintf("%dx%d", en.grid.Nx, en.grid.Ny),
		"fillers", en.numFillers, "lambda0", en.lambda, "overflow0", en.overflow)

	var grd *guardian
	if cfg.Guard != nil {
		grd = newGuardian(en, cfg.Guard, lu, res, opt)
	}
	res.SetupSeconds = prevSetup + time.Since(start).Seconds()
	loopStart := time.Now()
	// finalize writes the (possibly partial) placement back into the design
	// and fills the result metrics; used on every exit path so a cancelled
	// run still reports a usable partial Result.
	finalize := func() {
		en.unpack(opt.Pos())
		d.ClampToRegion()
		res.HPWL = wirelength.TotalHPWL(d)
		res.Overflow = en.overflow
		if nes, ok := opt.(*optimizer.Nesterov); ok {
			res.Evaluations = nes.EvalCount()
		} else {
			res.Evaluations = res.Iterations
		}
		res.LoopSeconds = prevLoop + time.Since(loopStart).Seconds()
		res.Seconds = prevSetup + prevLoop + time.Since(start).Seconds()
		if mstats != nil {
			m := o.Metrics
			m.Count("moreau_net_evals", mstats.Evals.Load())
			m.Count("moreau_degenerate", mstats.Degenerate.Load())
			m.Count("moreau_large_sorts", mstats.LargeSorts.Load())
		}
		logger.Info("gp: done",
			"design", d.Name, "hpwl", res.HPWL, "overflow", res.Overflow,
			"iterations", res.Iterations, "evaluations", res.Evaluations,
			"seconds", res.Seconds, "stopped", res.Stopped)
	}

	// writeCkpt snapshots the loop state after iter completed iterations.
	// bestEffort suppresses write errors on exit paths that already carry a
	// more important outcome (cancellation, early stop).
	writeCkpt := func(iter int, bestEffort bool) error {
		if cfg.Checkpoint.Dir == "" {
			return nil
		}
		snap := en.snapshot(iter, opt, lu, res)
		snap.SetupSeconds = res.SetupSeconds
		snap.LoopSeconds = prevLoop + time.Since(loopStart).Seconds()
		_, err := checkpoint.WriteRotating(cfg.Checkpoint.Dir, snap, cfg.Checkpoint.keepOrDefault())
		if err == nil {
			res.Checkpoints++
			logger.Debug("gp: checkpoint written", "iter", iter)
			return nil
		}
		if bestEffort {
			logger.Warn("gp: best-effort checkpoint failed", "iter", iter, "err", err)
			return nil
		}
		return fmt.Errorf("placer: checkpoint at iteration %d: %w", iter, err)
	}

	for k := res.ResumedFrom; k < cfg.MaxIters; k++ {
		if err := ctx.Err(); err != nil {
			// Persist the freshest state so a graceful drain can resume
			// exactly where the run stopped.
			logger.Warn("gp: cancelled", "iter", k, "err", err)
			writeCkpt(k, true) //nolint:errcheck // best-effort by design
			finalize()
			return res, err
		}
		if grd != nil {
			grd.release(k, opt)
			grd.maybeSnapshot(k, opt)
		}
		it := o.StartIteration(k)
		sp := o.StartPhase(obs.PhaseStep)
		obj := opt.Step(en.evalFn)
		sp.End()
		en.lambda = lu.Update(en.lastEnergy)

		// Exact HPWL is probed at most once per iteration and shared by
		// every consumer (guard growth check, trajectory recording, the
		// iteration hook); it used to be re-derived by each of them.
		record := cfg.RecordEvery > 0 && k%cfg.RecordEvery == 0
		wantHPWL := record || cfg.OnIteration != nil
		hpwl := 0.0
		if grd != nil || wantHPWL {
			en.unpack(opt.Pos())
			hpwl = wirelength.TotalHPWL(d)
		}
		if grd != nil {
			if v := grd.check(k, obj, hpwl, opt); v != nil {
				restart, gerr := grd.handle(k, v, opt)
				it.End()
				if gerr != nil {
					finalize()
					return res, gerr
				}
				// Replay from the restored iteration: the convergence break,
				// recording, and periodic checkpoints below all belong to the
				// abandoned pass and are skipped.
				k = restart - 1
				continue
			}
		}
		res.Iterations = k + 1

		stop := false
		if wantHPWL {
			pt := TrajectoryPoint{
				Iter:      k,
				Overflow:  en.overflow,
				HPWL:      hpwl,
				Objective: obj,
				Param:     en.param,
				Lambda:    en.lambda,
			}
			if record {
				res.Trajectory = append(res.Trajectory, pt)
				logger.Debug("gp: iteration",
					"iter", k, "hpwl", pt.HPWL, "overflow", pt.Overflow,
					"lambda", pt.Lambda, "param", pt.Param)
			}
			if cfg.OnIteration != nil && !cfg.OnIteration(pt) {
				res.Stopped = true
				stop = true
			}
		}
		if stop {
			logger.Info("gp: stopped by iteration hook", "iter", k)
			writeCkpt(k+1, true) //nolint:errcheck // best-effort by design
			it.End()
			break
		}
		if cfg.Checkpoint.Every > 0 && (k+1)%cfg.Checkpoint.Every == 0 {
			if err := writeCkpt(k+1, false); err != nil {
				it.End()
				finalize()
				return res, err
			}
		}
		it.End()
		if en.overflow < cfg.StopOverflow {
			logger.Info("gp: overflow target reached", "iter", k, "overflow", en.overflow)
			break
		}
	}
	// Only the cap ends the loop with neither the hook nor the target; the
	// negated test also counts a NaN overflow as not reached.
	res.Capped = !res.Stopped && !(en.overflow < cfg.StopOverflow)

	finalize()
	return res, nil
}

// setupFillers computes filler dimensions and count from the whitespace
// budget: fillerArea = targetDensity*freeArea - movableArea.
func (en *engine) setupFillers() {
	if en.cfg.NoFillers {
		return
	}
	d := en.d
	fixedArea := 0.0
	for i, c := range d.Cells {
		if !c.Kind.Moves() || en.isFrozen(i) {
			fixedArea += d.CellRect(i).Intersect(d.Region).Area()
		}
	}
	free := d.Region.Area() - fixedArea
	budget := en.targetDensity*free - en.movableArea
	if budget <= 0 {
		return
	}
	// Filler size: the average movable standard-cell size (macros skew the
	// mean, so use the median-ish harmonic of small cells).
	var wSum, hSum float64
	var cnt int
	for _, c := range en.mov {
		cell := d.Cells[c]
		if cell.Kind == netlist.MovableMacro {
			continue
		}
		wSum += cell.W
		hSum += cell.H
		cnt++
	}
	if cnt == 0 {
		return
	}
	en.fillerW = wSum / float64(cnt)
	en.fillerH = hSum / float64(cnt)
	if en.fillerW <= 0 || en.fillerH <= 0 {
		return
	}
	en.numFillers = int(budget / (en.fillerW * en.fillerH))
	// Cap fillers to keep the optimization vector bounded.
	if max := 4 * len(en.mov); en.numFillers > max {
		scale := math.Sqrt(budget / (float64(max) * en.fillerW * en.fillerH))
		en.fillerW *= scale
		en.fillerH *= scale
		en.numFillers = max
	}
}

// unpack writes the position vector back into the design's movable cells.
// Filler positions live only in the vector itself.
func (en *engine) unpack(pos []float64) {
	n := len(en.mov) + en.numFillers
	for i, c := range en.mov {
		en.d.SetCenter(c, pos[i], pos[n+i])
	}
}

// stampAndOverflow stamps movable cells, measures overflow, then stamps the
// fillers on top (ready for the field solve) and returns the overflow.
func (en *engine) stampAndOverflow(pos []float64) float64 {
	nm := len(en.mov)
	n := nm + en.numFillers
	x, y := pos[:n], pos[n:]
	en.grid.Clear()
	en.fp.Stamp(x, y, 0, nm)
	phi := en.grid.Overflow(en.targetDensity, en.overflowArea)
	en.fp.Stamp(x, y, nm, n)
	return phi
}

// calibrateLambda0 returns the ePlace initial density weight: the ratio of
// the wirelength gradient L1 norm to the density gradient L1 norm at the
// initial placement. density must already have run there and param be set
// from its overflow; the wirelength half computed here completes the kept
// evaluation.
func (en *engine) calibrateLambda0() float64 {
	en.wl = en.cfg.Model.WirelengthGrad(en.wlD, en.param, en.wgx, en.wgy)
	var wlNorm, denNorm float64
	for i, c := range en.mov {
		wlNorm += math.Abs(en.wgx[c]) + math.Abs(en.wgy[c])
		denNorm += math.Abs(en.fx[i]) + math.Abs(en.fy[i])
	}
	if denNorm <= 0 {
		return 1e-4
	}
	return wlNorm / denNorm
}

// density computes the half of the objective that depends on positions
// alone — stamping, overflow, the spectral solve, the energy, and the field
// gathered over each entry's smoothed footprint where the stamp placed it —
// and keeps it for pos. The caller completes the kept evaluation with the
// wirelength half at pos.
func (en *engine) density(pos []float64) {
	o := en.cfg.Obs
	sp := o.StartPhase(obs.PhaseStamp)
	en.denOverflow = en.stampAndOverflow(pos)
	sp.End()
	sp = o.StartPhase(obs.PhaseSolve)
	en.elec.SolveFromGrid()
	en.denEnergy = en.elec.Energy()
	sp.End()
	sp = o.StartPhase(obs.PhaseGather)
	en.fp.Gather(en.elec.Ex, en.elec.Ey, en.fx, en.fy)
	sp.End()
	en.key = append(en.key[:0], pos...)
}

// sameBits reports whether a and b hold bit-identical values, so -0 differs
// from +0 and a NaN matches only the same NaN.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// eval is the full objective W + lambda*D with gradient, used by the
// optimizer (including its backtracking trials). The smoothing parameter
// follows the evaluated point: it comes from pos's own density overflow, so
// both halves are functions of pos alone and are reused when pos repeats
// the kept point, which Nesterov's first evaluation of each step does. Only
// the gradient assembly depends on lambda and runs every call.
func (en *engine) eval(pos, grad []float64) float64 {
	o := en.cfg.Obs
	if o != nil {
		o.Metrics.EvalDone()
	}
	if !sameBits(pos, en.key) {
		en.density(pos)
		en.param = en.schedule(en.denOverflow)
		en.unpack(pos)
		sp := o.StartPhase(obs.PhaseWirelength)
		en.wl = en.cfg.Model.WirelengthGrad(en.wlD, en.param, en.wgx, en.wgy)
		sp.End()
	} else if o != nil {
		o.Metrics.Count("eval_reused", 1)
	}
	en.overflow = en.denOverflow
	en.lastEnergy = en.denEnergy

	// Gradient assembly: each entry's sampled force, plus the wirelength
	// gradient for cells, optionally preconditioned.
	d := en.d
	nm := len(en.mov)
	n := nm + en.numFillers
	for i, c := range en.mov {
		grad[i] = en.wgx[c] - en.lambda*en.fx[i]
		grad[n+i] = en.wgy[c] - en.lambda*en.fy[i]
		if en.cfg.Precondition {
			p := float64(len(d.PinsOfCell(c))) + en.lambda*d.Cells[c].Area()
			if p < 1 {
				p = 1
			}
			grad[i] /= p
			grad[n+i] /= p
		}
	}
	fillerPre := 1.0
	if en.cfg.Precondition {
		fillerPre = en.lambda * en.fillerW * en.fillerH
		if fillerPre < 1 {
			fillerPre = 1
		}
	}
	for i := nm; i < n; i++ {
		grad[i] = -en.lambda * en.fx[i] / fillerPre
		grad[n+i] = -en.lambda * en.fy[i] / fillerPre
	}
	return en.wl + en.lambda*en.denEnergy
}
