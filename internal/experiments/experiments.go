// Package experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic contest suites: Table I (benchmark
// statistics), Tables II/III (LGWL/DPWL/runtime comparisons across
// wirelength models), Fig. 1(a) (WA non-convexity), Fig. 1(b) (approximation
// error vs smoothing parameter), Fig. 3 (HPWL vs density overflow during
// global placement), plus the Section II-D numerical-stability study.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/placer"
	"repro/internal/synth"
)

// Options tunes experiment scale and effort so the same harness serves both
// quick smoke runs and the full reproduction.
type Options struct {
	// Scale2006, Scale2019 shrink the contest statistics; defaults are
	// synth.Scale2006 and synth.Scale2019.
	Scale2006, Scale2019 float64
	// MaxIters caps global placement iterations (default
	// placer.DefaultMaxIters). Flows normally stop at StopOverflow well
	// before the cap: the Moreau model needs 20-50% more iterations than WA
	// to reach the same overflow, so a cap that binds compares the models
	// at unequal density.
	MaxIters int
	// StopOverflow is the global placement stopping overflow (default
	// placer.DefaultStopOverflow).
	StopOverflow float64
	// Workers bounds concurrent designs (default: NumCPU/2, at least 1).
	// Models within one design always run sequentially so their runtime
	// ratio stays meaningful.
	Workers int
	// Progress, when non-nil, receives one line per completed flow.
	Progress io.Writer
	// Ctx, when non-nil, cancels in-flight flows (checked every global
	// placement iteration); a cancelled experiment returns ctx.Err().
	Ctx context.Context
}

// ctx returns the run context, defaulting to context.Background().
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) withDefaults() Options {
	if o.Scale2006 <= 0 {
		o.Scale2006 = synth.Scale2006
	}
	if o.Scale2019 <= 0 {
		o.Scale2019 = synth.Scale2019
	}
	if o.MaxIters <= 0 {
		o.MaxIters = placer.DefaultMaxIters
	}
	if o.StopOverflow <= 0 {
		o.StopOverflow = placer.DefaultStopOverflow
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU() / 2
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	return o
}

func (o Options) progressf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format, args...)
	}
}

// flowConfig builds the standard experiment flow for a model.
func (o Options) flowConfig(modelName string) core.FlowConfig {
	cfg := core.DefaultFlowConfig(modelName)
	cfg.GP = placer.Config{} // filled by core from modelName
	cfg.GP.MaxIters = o.MaxIters
	cfg.GP.StopOverflow = o.StopOverflow
	return cfg
}

// RefTetris is the label of the reference-flow column substituting the
// NTUPlace3 binary the paper lists for context (see DESIGN.md): the WA
// model with the greedy Tetris legalizer and no detailed placement.
const RefTetris = "REF_T"

// runModelOnDesign executes one flow; design is cloned so callers can reuse
// the input.
func runModelOnDesign(d *netlist.Design, model string, o Options) (*core.FlowResult, error) {
	dd := d.Clone()
	var cfg core.FlowConfig
	if model == RefTetris {
		cfg = o.flowConfig("WA")
		cfg.UseTetris = true
		cfg.SkipDetailed = true
	} else {
		cfg = o.flowConfig(model)
	}
	res, err := core.RunFlowContext(o.ctx(), dd, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", model, d.Name, err)
	}
	res.Model = model // keep the REF_T label
	return res, nil
}

// RunSuite generates every design of the given specs and runs all models on
// each, filling a metrics table (normalized to "ME", like the paper).
func RunSuite(title string, specs []synth.Spec, models []string, o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	tbl := metrics.NewTable(title, models, "ME")
	type job struct {
		idx  int
		spec synth.Spec
	}
	type outcome struct {
		idx     int
		design  string
		results map[string]*core.FlowResult
		err     error
	}
	jobs := make(chan job)
	outs := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				d, err := synth.Generate(j.spec)
				if err != nil {
					outs <- outcome{idx: j.idx, err: err}
					continue
				}
				results := map[string]*core.FlowResult{}
				for _, m := range models {
					res, err := runModelOnDesign(d, m, o)
					if err != nil {
						outs <- outcome{idx: j.idx, err: err}
						results = nil
						break
					}
					results[m] = res
					o.progressf("  %-14s %-9s LGWL=%.4g DPWL=%.4g RT=%.1fs overflow=%.3f\n",
						j.spec.Name, m, res.LGWL, res.DPWL, res.TotalSeconds, res.Overflow)
				}
				if results != nil {
					outs <- outcome{idx: j.idx, design: j.spec.Name, results: results}
				}
			}
		}()
	}
	go func() {
		for i, s := range specs {
			jobs <- job{idx: i, spec: s}
		}
		close(jobs)
		wg.Wait()
		close(outs)
	}()

	collected := make([]outcome, 0, len(specs))
	for out := range outs {
		if out.err != nil {
			// Drain remaining outcomes before returning.
			for range outs {
			}
			return nil, out.err
		}
		collected = append(collected, out)
	}
	// Deterministic row order regardless of completion order.
	for i := range specs {
		for _, out := range collected {
			if out.idx != i {
				continue
			}
			for _, m := range models {
				r := out.results[m]
				tbl.Set(out.design, m, metrics.Cell{LGWL: r.LGWL, DPWL: r.DPWL, RT: r.TotalSeconds})
			}
		}
	}
	return tbl, nil
}
