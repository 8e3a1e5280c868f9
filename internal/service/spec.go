package service

import (
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/bookshelf"
	"repro/internal/core"
	"repro/internal/ecocache"
	"repro/internal/guard"
	"repro/internal/netlist"
	"repro/internal/placer"
	"repro/internal/synth"
	"repro/internal/wirelength"
)

// JobSpec is the JSON body of POST /jobs: a design source, a wirelength
// model, and optional placer/flow tuning.
type JobSpec struct {
	Design DesignSpec `json:"design"`
	// Model names the wirelength model (LSE, WA, BiG_CHKS, BiG_WA, ME, HPWL);
	// default "ME", the paper's Moreau-envelope model.
	Model  string     `json:"model,omitempty"`
	Placer PlacerSpec `json:"placer,omitempty"`
	Flow   FlowSpec   `json:"flow,omitempty"`
	// TimeoutSeconds bounds the job's run time; 0 uses the manager's
	// default (which may be unlimited).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// Resume warm-starts the job from checkpoints recorded by another run
	// (typically on another fleet node sharing a filesystem). Only honored
	// when the daemon was started with -resume-root and the directory is
	// inside that root; rejected otherwise.
	Resume *ResumeSpec `json:"resume,omitempty"`
	// Parent names an earlier job this one is an incremental (ECO) revision
	// of. When the parent's placement is in the result cache and the design
	// delta is small, the job is served as a near hit: positions seed from
	// the parent and only the delta's blast region is re-placed. A missing or
	// uncached parent silently degrades to a cold start.
	Parent string `json:"parent,omitempty"`
}

// ResumeSpec points a job at an existing checkpoint directory.
type ResumeSpec struct {
	// Dir is scanned for the newest snapshot whose config fingerprint
	// matches this job; a mismatch (or no snapshot) cold-starts the run.
	Dir string `json:"dir,omitempty"`
}

// DesignSpec selects exactly one design source.
type DesignSpec struct {
	// Aux is a Bookshelf .aux path on the server (only allowed when the
	// manager was configured with an AuxRoot sandbox directory).
	Aux string `json:"aux,omitempty"`
	// Suite/Name pick a design from a synthetic contest suite
	// ("ispd2006" or "ispd2019"); Scale shrinks it (default suite scale).
	Suite string  `json:"suite,omitempty"`
	Name  string  `json:"name,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	// Synth generates an ad-hoc synthetic design inline.
	Synth *SynthSpec `json:"synth,omitempty"`
	// Perturb applies a deterministic structural edit (cell resizes and net
	// rewires, see netlist.Perturb) after the design is built. It models ECO
	// resubmission traffic: a child job keeps the parent's design spec and
	// adds a perturbation plus the parent reference.
	Perturb *PerturbSpec `json:"perturb,omitempty"`
}

// PerturbSpec mirrors netlist.Perturbation with JSON tags.
type PerturbSpec struct {
	Seed     int64   `json:"seed,omitempty"`
	CellFrac float64 `json:"cell_frac,omitempty"`
	NetFrac  float64 `json:"net_frac,omitempty"`
}

// SynthSpec mirrors synth.Spec with JSON tags and service defaults.
type SynthSpec struct {
	Name          string  `json:"name,omitempty"`
	Cells         int     `json:"cells"`
	Macros        int     `json:"macros,omitempty"`
	Pads          int     `json:"pads,omitempty"`
	FixedBlocks   int     `json:"fixed_blocks,omitempty"`
	Nets          int     `json:"nets,omitempty"`
	AvgDegree     float64 `json:"avg_degree,omitempty"`
	Utilization   float64 `json:"utilization,omitempty"`
	TargetDensity float64 `json:"target_density,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
}

// PlacerSpec is the JSON view of the placer.Config knobs the service exposes.
type PlacerSpec struct {
	MaxIters     int     `json:"max_iters,omitempty"`
	StopOverflow float64 `json:"stop_overflow,omitempty"`
	GridX        int     `json:"grid_x,omitempty"`
	GridY        int     `json:"grid_y,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
	Optimizer    string  `json:"optimizer,omitempty"`
	Init         string  `json:"init,omitempty"`
	Schedule     string  `json:"schedule,omitempty"`
	RecordEvery  int     `json:"record_every,omitempty"`
	// Workers maps onto placer.Config.Workers, which rejects a negative
	// value and otherwise ignores it: a job places on one goroutine, and
	// placerd's -workers runs jobs concurrently.
	//
	// Deprecated: has no effect; kept because existing requests set it.
	Workers      int  `json:"workers,omitempty"`
	Precondition bool `json:"precondition,omitempty"`
	// Guard enables the numerical-health guard (divergence detection plus
	// snapshot rollback, see internal/guard) with default thresholds.
	// GuardMaxRetries overrides the per-episode rollback budget (0 keeps
	// the default).
	Guard           bool `json:"guard,omitempty"`
	GuardMaxRetries int  `json:"guard_max_retries,omitempty"`
}

// FlowSpec selects which stages run after global placement.
type FlowSpec struct {
	// GPOnly stops after global placement (fastest; the usual service
	// request shape).
	GPOnly bool `json:"gp_only,omitempty"`
	// SkipDetailed stops after legalization.
	SkipDetailed bool `json:"skip_detailed,omitempty"`
	// UseTetris swaps Abacus for the greedy Tetris legalizer.
	UseTetris bool `json:"use_tetris,omitempty"`
}

// Validate checks the spec without doing any heavy work, so bad requests are
// rejected at submit time rather than failing inside a worker.
func (s *JobSpec) Validate(auxRoot string) error {
	srcs := 0
	if s.Design.Aux != "" {
		srcs++
		if auxRoot == "" {
			return fmt.Errorf("aux jobs are disabled (daemon started without -aux-root)")
		}
		if _, err := s.auxPath(auxRoot); err != nil {
			return err
		}
	}
	if s.Design.Suite != "" || s.Design.Name != "" {
		srcs++
		if s.Design.Suite == "" || s.Design.Name == "" {
			return fmt.Errorf("suite jobs need both design.suite and design.name")
		}
	}
	if s.Design.Synth != nil {
		srcs++
		if s.Design.Synth.Cells <= 0 {
			return fmt.Errorf("design.synth.cells must be positive")
		}
	}
	if srcs != 1 {
		return fmt.Errorf("design must give exactly one of aux, suite/name, or synth (got %d)", srcs)
	}
	if pt := s.Design.Perturb; pt != nil {
		if pt.CellFrac < 0 || pt.CellFrac > 1 || pt.NetFrac < 0 || pt.NetFrac > 1 {
			return fmt.Errorf("design.perturb fractions must be in [0,1]")
		}
		if pt.CellFrac == 0 && pt.NetFrac == 0 {
			return fmt.Errorf("design.perturb needs cell_frac or net_frac > 0")
		}
	}
	m, err := wirelength.ByName(s.modelName())
	if err != nil {
		return err
	}
	cfg := s.placerConfig()
	cfg.Model = m
	if err := cfg.Validate(); err != nil {
		return err
	}
	if s.TimeoutSeconds < 0 {
		return fmt.Errorf("timeout_seconds must be >= 0")
	}
	return nil
}

// designLabel names the design source for job listings before the design is
// actually built (the worker replaces it with the real design name).
func (s *JobSpec) designLabel() string {
	switch {
	case s.Design.Aux != "":
		return filepath.Base(s.Design.Aux)
	case s.Design.Suite != "":
		return s.Design.Suite + "/" + s.Design.Name
	case s.Design.Synth != nil && s.Design.Synth.Name != "":
		return s.Design.Synth.Name
	case s.Design.Synth != nil:
		return fmt.Sprintf("synth%d", s.Design.Synth.Cells)
	}
	return ""
}

func (s *JobSpec) modelName() string {
	if s.Model == "" {
		return "ME"
	}
	return s.Model
}

// validateResumeDir checks the optional cross-node resume pointer against
// the manager's ResumeRoot sandbox. Kept out of Validate because the root is
// manager state, not part of the spec contract (old persisted specs without
// a resume block validate unchanged).
func (s *JobSpec) validateResumeDir(resumeRoot string) error {
	if s.Resume == nil || s.Resume.Dir == "" {
		return nil
	}
	if resumeRoot == "" {
		return fmt.Errorf("resume.dir jobs are disabled (daemon started without -resume-root)")
	}
	rel, err := filepath.Rel(resumeRoot, s.Resume.Dir)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return fmt.Errorf("resume.dir %q escapes the resume root", s.Resume.Dir)
	}
	return nil
}

// auxPath resolves the aux file inside the sandbox root, rejecting escapes.
func (s *JobSpec) auxPath(auxRoot string) (string, error) {
	p := filepath.Join(auxRoot, filepath.Clean("/"+s.Design.Aux))
	rel, err := filepath.Rel(auxRoot, p)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("aux path %q escapes the aux root", s.Design.Aux)
	}
	return p, nil
}

// placerConfig translates PlacerSpec into placer.Config (Model left nil).
// Each call builds a fresh guard.Config, so per-run OnEvent wiring never
// leaks between jobs sharing a spec.
func (s *JobSpec) placerConfig() placer.Config {
	p := s.Placer
	cfg := placer.Config{
		MaxIters:     p.MaxIters,
		StopOverflow: p.StopOverflow,
		GridX:        p.GridX,
		GridY:        p.GridY,
		Seed:         p.Seed,
		Optimizer:    p.Optimizer,
		Init:         p.Init,
		Schedule:     p.Schedule,
		RecordEvery:  p.RecordEvery,
		Workers:      p.Workers,
		Precondition: p.Precondition,
	}
	if p.Guard {
		cfg.Guard = &guard.Config{MaxRetries: p.GuardMaxRetries}
	}
	return cfg
}

// buildDesign materializes the design (and applies the optional ECO
// perturbation). Called inside a worker: generation of large synthetic
// designs and Bookshelf parsing can be slow.
func (s *JobSpec) buildDesign(auxRoot string) (*netlist.Design, error) {
	_, d, err := s.buildDesigns(auxRoot)
	return d, err
}

// buildDesigns returns the design before and after the optional ECO
// perturbation; d is base itself when the spec has none. Perturb returns a
// copy, so base stays the unperturbed design.
func (s *JobSpec) buildDesigns(auxRoot string) (base, d *netlist.Design, err error) {
	base, err = s.buildBaseDesign(auxRoot)
	if pt := s.Design.Perturb; err == nil && pt != nil {
		d, err = netlist.Perturb(base, netlist.Perturbation{
			Seed: pt.Seed, CellFrac: pt.CellFrac, NetFrac: pt.NetFrac,
		})
		return base, d, err
	}
	return base, base, err
}

// buildBaseDesign materializes the design source before any perturbation.
func (s *JobSpec) buildBaseDesign(auxRoot string) (*netlist.Design, error) {
	d := s.Design
	switch {
	case d.Aux != "":
		p, err := s.auxPath(auxRoot)
		if err != nil {
			return nil, err
		}
		return bookshelf.ReadDesign(p)
	case d.Suite != "":
		scale := d.Scale
		if scale <= 0 {
			scale = 0.01
		}
		specs, err := synth.SuiteScaled(d.Suite, scale)
		if err != nil {
			return nil, err
		}
		for _, sp := range specs {
			if sp.Name == d.Name {
				return synth.Generate(sp)
			}
		}
		return nil, fmt.Errorf("design %q not in suite %s", d.Name, d.Suite)
	default:
		sp := d.Synth
		spec := synth.Spec{
			Name:           sp.Name,
			NumMovable:     sp.Cells,
			NumMacros:      sp.Macros,
			NumPads:        sp.Pads,
			NumFixedBlocks: sp.FixedBlocks,
			NumNets:        sp.Nets,
			AvgDegree:      sp.AvgDegree,
			Utilization:    sp.Utilization,
			TargetDensity:  sp.TargetDensity,
			Seed:           sp.Seed,
		}
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("synth%d", sp.Cells)
		}
		if spec.NumPads <= 0 {
			spec.NumPads = 8
		}
		if spec.NumNets <= 0 {
			spec.NumNets = sp.Cells + sp.Cells/10
		}
		if spec.AvgDegree < 2 {
			spec.AvgDegree = 3.9
		}
		if spec.Utilization <= 0 {
			spec.Utilization = 0.7
		}
		if spec.TargetDensity <= 0 {
			spec.TargetDensity = 1
		}
		return synth.Generate(spec)
	}
}

// cacheFingerprint condenses every result-determining knob of this spec into
// the config half of the placement-result cache key. Knobs the JSON spec does
// not expose stay at their zero value: the fingerprint only has to agree for
// specs that are the same computation and differ when they are not (a
// disagreement costs a cache miss, never a wrong result).
func (s *JobSpec) cacheFingerprint() ecocache.ConfigFingerprint {
	p := s.placerConfig()
	f := ecocache.ConfigFingerprint{
		Model:        s.modelName(),
		GridX:        p.GridX,
		GridY:        p.GridY,
		MaxIters:     p.MaxIters,
		StopOverflow: p.StopOverflow,
		Seed:         p.Seed,
		Init:         p.Init,
		Optimizer:    p.Optimizer,
		Schedule:     p.Schedule,
		Precondition: p.Precondition,
		GPOnly:       s.Flow.GPOnly,
		SkipDetailed: s.Flow.SkipDetailed,
		UseTetris:    s.Flow.UseTetris,
	}
	if p.Guard != nil {
		f.Guard = true
		f.GuardRetries = p.Guard.MaxRetries
	}
	return f
}

// flowConfig builds the core.FlowConfig for this spec.
func (s *JobSpec) flowConfig() core.FlowConfig {
	cfg := core.DefaultFlowConfig(s.modelName())
	cfg.GP = s.placerConfig()
	cfg.GPOnly = s.Flow.GPOnly
	cfg.SkipDetailed = s.Flow.SkipDetailed
	cfg.UseTetris = s.Flow.UseTetris
	return cfg
}
