// Package placer implements ePlace-style analytical global placement: the
// wirelength model (pluggable; the paper compares LSE, WA, BiG and its
// Moreau-envelope model) plus the electrostatic density penalty, minimized
// by Nesterov's method with Barzilai-Borwein step prediction.
//
// The objective is Eq. (1) of the paper,
//
//	min_{x,y}  sum_e W_e(x, y) + lambda * D(x, y),
//
// with the smoothing parameter driven by the density overflow (the ePlace
// gamma schedule for exponential models, the paper's tangent t schedule for
// the Moreau model) and lambda driven by Eq. (15).
package placer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/perfbench/refgp/checkpoint"
	"repro/perfbench/refgp/density"
	"repro/perfbench/refgp/guard"
	"repro/perfbench/refgp/moreau"
	"repro/perfbench/refgp/netlist"
	"repro/perfbench/refgp/obs"
	"repro/perfbench/refgp/optimizer"
	"repro/perfbench/refgp/parallel"
	"repro/perfbench/refgp/quadratic"
	"repro/perfbench/refgp/wirelength"
)

// Config controls a global placement run.
type Config struct {
	// Model is the differentiable wirelength model (required).
	Model wirelength.Model
	// GridX, GridY are the density grid dimensions (powers of two);
	// zero selects them automatically from the design size.
	GridX, GridY int
	// TargetDensity overrides the design's bin density target when > 0.
	TargetDensity float64
	// MaxIters caps global placement iterations (default 1000).
	MaxIters int
	// StopOverflow ends global placement once the density overflow drops
	// below it (default 0.07, the usual ePlace target).
	StopOverflow float64
	// Gamma0 is the base multiplier of the ePlace gamma schedule
	// (default 4.0); used by LSE/WA/BiG.
	Gamma0 float64
	// T0 and Delta parameterize the paper's tangent t schedule (Eq. 14);
	// defaults 4.0 and 1e-4.
	T0, Delta float64
	// NoFillers disables whitespace filler cell insertion (fillers are
	// on by default).
	NoFillers bool
	// Seed randomizes the initial placement jitter.
	Seed int64
	// RecordEvery records a trajectory point (exact HPWL vs overflow)
	// every that many iterations; 0 disables recording.
	RecordEvery int
	// KeepPositions starts from the design's input placement instead of
	// the default ePlace center-with-jitter initialization.
	KeepPositions bool
	// Init selects the initial placement explicitly and overrides
	// KeepPositions: "center" (ePlace default), "keep" (input positions),
	// or "quadratic" (Bound2Bound quadratic placement, Kraftwerk2-style).
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
	// Workers > 1 runs the whole evaluation pipeline — the wirelength
	// model (which must be one of the named models), density stamping,
	// the spectral Poisson solve, and the field gather — on a shared
	// pool of that many goroutines. Results are deterministic for a
	// fixed worker count (per-worker partials reduce in index order) and
	// match the serial path up to floating-point addition order.
	// (The old WLWorkers alias is gone from this struct; the service
	// layer still accepts the wl_workers JSON knob and folds it into
	// Workers before the config reaches the placer.)
	Workers int
	// Obs, when non-nil, receives the run's observability streams:
	// structured logs, per-phase trace spans (one per engine phase per
	// iteration), and convergence metrics. A nil Obs — or an Obs with
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
	// Resume warm-starts the run from a snapshot instead of the usual
	// initialization. The snapshot's config fingerprint must match this
	// run (same design, grid, worker count, model, optimizer, seed);
	// otherwise PlaceContext fails with checkpoint.ErrMismatch. With a
	// matching setup the resumed run finishes bit-identical to an
	// uninterrupted one.
	Resume *checkpoint.Snapshot
	// ResumeDir warm-starts the run from the newest snapshot in this
	// directory whose config fingerprint matches the run, scanning
	// backwards past corrupt or mismatched files; when nothing matches the
	// run cold-starts (no error). Mutually exclusive with Resume.
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
	// numerical-health checks (finite positions/objective, HPWL growth vs.
	// a trailing window, optional overflow-stall and step-ceiling checks)
	// with automatic rollback to an in-memory snapshot ring, step
	// shrinking with exponential backoff on repeated trips, and a typed
	// guard.DivergenceError once the retry budget is exhausted.
	// &guard.Config{} selects all defaults. A nil Guard costs one pointer
	// check per iteration and leaves results bit-identical.
	Guard *guard.Config
}

// DefaultConfig returns the standard configuration for a model.
func DefaultConfig(m wirelength.Model) Config {
	return Config{
		Model:        m,
		MaxIters:     1000,
		StopOverflow: 0.07,
		Gamma0:       4.0,
		T0:           4.0,
		Delta:        1e-4,
		Seed:         1,
	}
}

// TrajectoryPoint is one sample of the Fig. 3 curve: exact HPWL against
// density overflow during global placement.
type TrajectoryPoint struct {
	Iter      int
	Overflow  float64
	HPWL      float64
	Objective float64
	Param     float64 // smoothing parameter (gamma or t) at this iteration
	Lambda    float64
}

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
	// ResumedFrom is the iteration the run was warm-started at via
	// Config.Resume (0 for a cold start).
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
	workers   int   // shared worker-pool size (>= 1)

	grid    *density.Grid
	elec    *density.Electro
	stamper *density.Stamper

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

	param    float64 // current smoothing parameter
	lambda   float64
	overflow float64

	lastEnergy float64

	// Prebuilt hot-path closures and their parameter fields: closures
	// handed to parallel.For / the stamper from inside eval would escape
	// to the heap on every call, so they are constructed once (initHotPath)
	// and read the current position/gradient vectors from pos/grad. eval
	// is never called concurrently with itself, so plain fields are safe.
	pos, grad    []float64
	evalFn       func(pos, grad []float64) float64
	fnGatherMov  func(w, lo, hi int)
	fnGatherFill func(w, lo, hi int)
	fnStampMov   func(i int) (float64, float64, float64, float64)
	fnStampFill  func(f int) (float64, float64, float64, float64)
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
// density solver cannot handle, and unknown enum strings.
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
	if cfg.Resume != nil && cfg.ResumeDir != "" {
		return fmt.Errorf("placer: Resume and ResumeDir are both set; pick one")
	}
	if cfg.Guard != nil {
		if err := cfg.Guard.Validate(); err != nil {
			return fmt.Errorf("placer: %w", err)
		}
	}
	return nil
}

// optName resolves the optimizer config string to its canonical name.
func optName(s string) string {
	if s == "" {
		return "nesterov"
	}
	return s
}

// effectiveWorkers resolves the worker-pool size (0 means serial).
func (cfg *Config) effectiveWorkers() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return 1
}

// newEngine builds the run state of one global placement: the density grid
// and spectral solver (sized to the worker pool), fillers, per-entry half
// dimensions, the initial position vector, and the projection operator. It
// is the setup phase of PlaceContext, split out so equivalence tests and
// benchmarks can drive engine.eval directly. cfg must already carry its
// numeric defaults and a (possibly parallelized) model.
func newEngine(d *netlist.Design, cfg Config, workers int) (*engine, []float64, error) {
	if workers < 1 {
		workers = 1
	}
	en := &engine{d: d, wlD: d, cfg: cfg, mov: d.MovableIndices(), workers: workers}
	if cfg.Freeze != nil {
		if len(cfg.Freeze) != d.NumCells() {
			return nil, nil, fmt.Errorf("placer: Freeze has %d entries, design has %d cells", len(cfg.Freeze), d.NumCells())
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
		return nil, nil, fmt.Errorf("placer: design %q has no movable cells", d.Name)
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
	en.elec = density.NewElectroWorkers(en.grid, workers)
	en.elec.Obs = cfg.Obs
	en.stamper = density.NewStamper(en.grid, workers)

	en.targetDensity = d.TargetDensity
	if cfg.TargetDensity > 0 {
		en.targetDensity = cfg.TargetDensity
	}
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

	rng := rand.New(rand.NewSource(cfg.Seed))
	en.setupFillers(rng)

	n := len(en.mov) + en.numFillers
	pos := make([]float64, 2*n)
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

	// Initial placement.
	initMode := cfg.Init
	if initMode == "" {
		if cfg.KeepPositions {
			initMode = "keep"
		} else {
			initMode = "center"
		}
	}
	switch initMode {
	case "center", "keep":
	case "quadratic":
		if err := quadratic.PlaceB2B(d, quadratic.B2BOptions{}); err != nil {
			return nil, nil, fmt.Errorf("placer: quadratic init: %w", err)
		}
	default:
		return nil, nil, fmt.Errorf("placer: unknown init %q (want center, keep, or quadratic)", cfg.Init)
	}
	cx, cy := d.Region.Center().X, d.Region.Center().Y
	jx := d.Region.W() * 0.001
	jy := d.Region.H() * 0.001
	for i, c := range en.mov {
		if initMode == "center" {
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
	en.project(pos)

	en.wgx = make([]float64, d.NumCells())
	en.wgy = make([]float64, d.NumCells())
	en.initHotPath()
	return en, pos, nil
}

// initHotPath constructs the closures used by every eval once, so the
// steady-state objective/gradient evaluation performs no allocations: the
// stamping callbacks, the per-cell and per-filler field gather bodies, and
// the optimizer's evaluation function (a method value created per call would
// itself allocate).
func (en *engine) initHotPath() {
	d := en.d
	n := len(en.mov) + en.numFillers
	nm := len(en.mov)
	en.evalFn = en.eval
	en.fnStampMov = func(i int) (float64, float64, float64, float64) {
		return en.pos[i], en.pos[n+i], 2 * en.halfW[i], 2 * en.halfH[i]
	}
	en.fnStampFill = func(f int) (float64, float64, float64, float64) {
		i := nm + f
		return en.pos[i], en.pos[n+i], en.fillerW, en.fillerH
	}
	// The per-cell field gather is embarrassingly parallel: entry i writes
	// only grad[i] and grad[n+i] and reads shared immutable state, so the
	// result is worker-count independent.
	en.fnGatherMov = func(_, lo, hi int) {
		pos, grad := en.pos, en.grad
		for i := lo; i < hi; i++ {
			c := en.mov[i]
			fx, fy := en.grid.SampleSmoothed(en.elec.Ex, en.elec.Ey, pos[i], pos[n+i], 2*en.halfW[i], 2*en.halfH[i])
			grad[i] = en.wgx[c] - en.lambda*fx
			grad[n+i] = en.wgy[c] - en.lambda*fy
			if en.cfg.Precondition {
				p := float64(len(d.PinsOfCell(c))) + en.lambda*d.Cells[c].Area()
				if p < 1 {
					p = 1
				}
				grad[i] /= p
				grad[n+i] /= p
			}
		}
	}
	en.fnGatherFill = func(_, lo, hi int) {
		pos, grad := en.pos, en.grad
		fillerPre := 1.0
		if en.cfg.Precondition {
			fillerPre = en.lambda * en.fillerW * en.fillerH
			if fillerPre < 1 {
				fillerPre = 1
			}
		}
		for f := lo; f < hi; f++ {
			i := nm + f
			fx, fy := en.grid.SampleSmoothed(en.elec.Ex, en.elec.Ey, pos[i], pos[n+i], en.fillerW, en.fillerH)
			grad[i] = -en.lambda * fx / fillerPre
			grad[n+i] = -en.lambda * fy / fillerPre
		}
	}
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
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 1000
	}
	if cfg.StopOverflow <= 0 {
		cfg.StopOverflow = 0.07
	}
	if cfg.Gamma0 <= 0 {
		cfg.Gamma0 = 4.0
	}
	if cfg.T0 <= 0 {
		cfg.T0 = 4.0
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 1e-4
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("placer: %w", err)
	}
	workers := cfg.effectiveWorkers()
	o := cfg.Obs
	logger := o.Logger()
	// With metrics enabled, rebuild the named model so its kernels share one
	// branch-statistics counter; custom (unnamed) models stay untouched.
	var mstats *moreau.Stats
	if o != nil && o.Metrics != nil {
		mstats = &moreau.Stats{}
	}
	if workers > 1 {
		pm, err := wirelength.ParallelByNameStats(cfg.Model.Name(), workers, mstats)
		if err != nil {
			return nil, fmt.Errorf("placer: parallel wirelength: %w", err)
		}
		cfg.Model = pm
	} else if mstats != nil {
		if sm, err := wirelength.ByNameStats(cfg.Model.Name(), mstats); err == nil {
			cfg.Model = sm
		} else {
			mstats = nil
		}
	}
	if o != nil && o.Trace != nil {
		o.Trace.SetWorkers(workers)
	}

	start := time.Now()
	setup := o.StartPhase(obs.PhaseSetup)
	en, pos, err := newEngine(d, cfg, workers)
	if err != nil {
		return nil, err
	}

	gammaSched := GammaSchedule{Gamma0: cfg.Gamma0, BinW: en.grid.BinW, BinH: en.grid.BinH}
	tSched := TSchedule{T0: cfg.T0, Delta: cfg.Delta, BinW: en.grid.BinW, BinH: en.grid.BinH}
	useTangent := cfg.Model.ParamKind() == wirelength.ParamMoreauT
	switch cfg.Schedule {
	case "":
	case "gamma":
		useTangent = false
	case "tangent":
		useTangent = true
	default:
		return nil, fmt.Errorf("placer: unknown schedule %q (want gamma or tangent)", cfg.Schedule)
	}
	schedule := func(phi float64) float64 {
		if useTangent {
			return tSched.At(phi)
		}
		return gammaSched.At(phi)
	}

	if cfg.Resume == nil && cfg.ResumeDir != "" {
		fp := en.fingerprint()
		snap, path, lerr := checkpoint.LoadLatestMatching(cfg.ResumeDir, func(s *checkpoint.Snapshot) error {
			return fp.Match(s.Fingerprint)
		})
		switch {
		case lerr == nil:
			cfg.Resume = snap
			logger.Info("gp: resume dir matched snapshot", "path", path, "iter", snap.Iter)
		case errors.Is(lerr, checkpoint.ErrNoSnapshot):
			logger.Info("gp: resume dir has no matching snapshot; cold start", "dir", cfg.ResumeDir)
		default:
			return nil, fmt.Errorf("placer: resume dir: %w", lerr)
		}
	}

	lu := NewLambdaUpdater()
	startIter := 0
	var prevSetup, prevLoop float64
	if cfg.Resume != nil {
		// Warm start: skip initialization and lambda calibration entirely;
		// every scheduled quantity comes from the snapshot.
		if err := en.restore(pos, cfg.Resume, lu); err != nil {
			return nil, err
		}
		startIter = cfg.Resume.Iter
		prevSetup = cfg.Resume.SetupSeconds
		prevLoop = cfg.Resume.LoopSeconds
		logger.Info("gp: resuming from checkpoint", "design", d.Name, "iter", startIter, "overflow", en.overflow)
	} else {
		// Measure the initial overflow and calibrate lambda0 from the ratio
		// of wirelength to density gradient magnitudes (ePlace).
		en.unpack(pos)
		en.overflow = en.stampAndOverflow(pos)
		en.param = schedule(en.overflow)
		en.elec.SolveFromGrid()
		lambda0 := en.calibrateLambda0(pos)
		lu.Prime(lambda0, en.elec.Energy())
		en.lambda = lu.Lambda()
	}
	setup.End()
	logger.Info("gp: starting",
		"design", d.Name, "cells", d.NumCells(), "nets", d.NumNets(),
		"model", cfg.Model.Name(), "optimizer", optName(cfg.Optimizer),
		"workers", workers, "grid", fmt.Sprintf("%dx%d", en.grid.Nx, en.grid.Ny),
		"fillers", en.numFillers, "lambda0", en.lambda, "overflow0", en.overflow)

	var opt optimizer.Optimizer
	binScale := en.grid.BinW + en.grid.BinH
	switch cfg.Optimizer {
	case "", "nesterov":
		opt = optimizer.NewNesterov(pos, 1e-3*binScale, en.project)
	case "adam":
		// Adam's normalized step moves each coordinate by up to LR per
		// iteration; half a bin keeps spreading stable.
		opt = optimizer.NewAdam(pos, 0.25*binScale, en.project)
	case "momentum":
		opt = optimizer.NewMomentum(pos, 1e-2*binScale, 0.9, en.project)
	default:
		return nil, fmt.Errorf("placer: unknown optimizer %q (want nesterov, adam, or momentum)", cfg.Optimizer)
	}

	res := &Result{ReleasedCells: len(en.mov), FrozenCells: en.numFrozen}
	if cfg.Resume != nil {
		st, ok := opt.(optimizer.Stateful)
		if !ok {
			return nil, fmt.Errorf("placer: optimizer %T does not support resume", opt)
		}
		if err := st.Restore(cfg.Resume.Opt); err != nil {
			return nil, fmt.Errorf("placer: resume: %w", err)
		}
		res.ResumedFrom = startIter
		res.Iterations = startIter
		res.Trajectory = resumeTrajectory(cfg.Resume)
	}
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
		snap, err := en.snapshot(iter, opt, lu, res)
		if err == nil {
			snap.SetupSeconds = res.SetupSeconds
			snap.LoopSeconds = prevLoop + time.Since(loopStart).Seconds()
			_, err = checkpoint.WriteRotating(cfg.Checkpoint.Dir, snap, cfg.Checkpoint.keepOrDefault())
		}
		if err == nil {
			res.Checkpoints++
			if o != nil {
				o.Metrics.CheckpointDone()
			}
			logger.Debug("gp: checkpoint written", "iter", iter)
			return nil
		}
		if bestEffort {
			logger.Warn("gp: best-effort checkpoint failed", "iter", iter, "err", err)
			return nil
		}
		return fmt.Errorf("placer: checkpoint at iteration %d: %w", iter, err)
	}

	for k := startIter; k < cfg.MaxIters; k++ {
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
		en.param = schedule(en.overflow)
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
		if o != nil && o.Metrics != nil {
			step := 0.0
			if ss, ok := opt.(optimizer.StepSizer); ok {
				step = ss.LastStepSize()
			}
			// The gauge reports HPWL only on iterations that sampled it
			// for the trajectory/hook, matching the historical stream.
			gaugeHPWL := 0.0
			if wantHPWL {
				gaugeHPWL = hpwl
			}
			o.Metrics.Record(obs.Point{
				Iter: k, HPWL: gaugeHPWL, Overflow: en.overflow,
				Lambda: en.lambda, Param: en.param, Step: step,
			})
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

	finalize()
	return res, nil
}

// setupFillers computes filler dimensions and count from the whitespace
// budget: fillerArea = targetDensity*freeArea - movableArea.
func (en *engine) setupFillers(rng *rand.Rand) {
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
	_ = rng
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
// fillers on top (ready for the field solve) and returns the overflow. Both
// stamping passes and the overflow reduction run on the engine's worker
// pool; per-worker partials reduce in worker order (deterministic for a
// fixed worker count).
func (en *engine) stampAndOverflow(pos []float64) float64 {
	en.pos = pos
	en.grid.Clear()
	en.stamper.StampSmoothed(len(en.mov), en.fnStampMov)
	phi := en.grid.OverflowWorkers(en.targetDensity, en.overflowArea, en.workers)
	en.stamper.StampSmoothed(en.numFillers, en.fnStampFill)
	return phi
}

// calibrateLambda0 returns the ePlace initial density weight: the ratio of
// the wirelength gradient L1 norm to the density gradient L1 norm at the
// initial placement. The field must already be solved.
func (en *engine) calibrateLambda0(pos []float64) float64 {
	en.cfg.Model.WirelengthGrad(en.wlD, en.param, en.wgx, en.wgy)
	var wlNorm, denNorm float64
	n := len(en.mov) + en.numFillers
	for i, c := range en.mov {
		wlNorm += math.Abs(en.wgx[c]) + math.Abs(en.wgy[c])
		fx, fy := en.grid.SampleSmoothed(en.elec.Ex, en.elec.Ey, pos[i], pos[n+i], 2*en.halfW[i], 2*en.halfH[i])
		denNorm += math.Abs(fx) + math.Abs(fy)
	}
	if denNorm <= 0 {
		return 1e-4
	}
	return wlNorm / denNorm
}

// eval is the full objective W + lambda*D with gradient, used by the
// optimizer (including its backtracking trials).
func (en *engine) eval(pos, grad []float64) float64 {
	o := en.cfg.Obs
	if o != nil {
		o.Metrics.EvalDone()
	}
	en.unpack(pos)
	sp := o.StartPhase(obs.PhaseWirelength)
	w := en.cfg.Model.WirelengthGrad(en.wlD, en.param, en.wgx, en.wgy)
	sp.End()

	sp = o.StartPhase(obs.PhaseStamp)
	en.overflow = en.stampAndOverflow(pos)
	sp.End()
	sp = o.StartPhase(obs.PhaseSolve)
	en.elec.SolveFromGrid()
	energy := en.elec.Energy()
	en.lastEnergy = energy
	sp.End()
	sp = o.StartPhase(obs.PhaseGather)
	defer sp.End()

	en.pos, en.grad = pos, grad
	parallel.For(en.workers, len(en.mov), en.fnGatherMov)
	parallel.For(en.workers, en.numFillers, en.fnGatherFill)
	return w + en.lambda*energy
}
