package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	rplacer "repro/perfbench/refgp/placer"
	rsynth "repro/perfbench/refgp/synth"
	rwirelength "repro/perfbench/refgp/wirelength"
)

// The host this benchmark runs on is a share of a larger machine, and how
// fast one thread computes there moves by tens of percent within minutes as
// the neighbours' load changes (NOTES.md, "Scaling by the host's speed"). A
// wall time on its own therefore says as much about the neighbours as about
// the program. So the benchmark times a fixed reference run just before and
// just after each timed piece of work and scales the work's time by the
// reference run's nominal time over its time around the work: the time the
// work would have taken on the host the nominal times were taken on. The
// unscaled times are printed beside the scaled ones.
//
// The reference run is a whole global placement by refgp, a frozen copy of
// the placement engine kept inside the benchmark, of a design the size of the
// workload's. Small synthetic kernels, and the engine's first 60 iterations,
// did not slow down the way the program did when the host got busy; the
// engine's whole run did. Being a copy, it does not change when the program
// does, so a change to the program moves the scaled times. serve_eco scales
// by the median of all its reference runs instead of the two around each
// piece of work (runScale).

// gauge is one workload's reference run: a design the size of the
// workload's, placed by the frozen engine's default global placement on one
// thread.
type gauge struct {
	spec  rsynth.Spec
	model string
	// nominal is a fixed reference time for one run, about what it took
	// on a quiet host.
	nominal float64
	// hpwl is the first run's result; every later run must repeat it bit for
	// bit, or the reference did not do the same work.
	hpwl   float64
	runs   []float64
	broken int
}

// newGauge makes a gauge and runs it once, untimed, so that the first timed
// run finds the code and the allocator warm like every later one.
func newGauge(spec rsynth.Spec, model string, nominal float64) (*gauge, error) {
	g := &gauge{spec: spec, model: model, nominal: nominal}
	if _, err := g.measure(); err != nil {
		return nil, err
	}
	g.runs = nil
	return g, nil
}

// measure collects the garbage the work before it left, then times one
// reference run and returns its wall time in seconds. The memory samples
// pause while it runs, so that they describe only the workload's own work.
func (g *gauge) measure() (float64, error) {
	sampleMem.Store(false)
	defer sampleMem.Store(true)
	d, err := rsynth.Generate(g.spec)
	if err != nil {
		return 0, fmt.Errorf("reference design: %w", err)
	}
	m, err := rwirelength.ByName(g.model)
	if err != nil {
		return 0, err
	}
	cfg := rplacer.DefaultConfig(m)
	cfg.Workers = 1
	runtime.GC()
	t := time.Now()
	res, err := rplacer.PlaceContext(context.Background(), d, cfg)
	sec := time.Since(t).Seconds()
	if err != nil {
		return 0, fmt.Errorf("reference run: %w", err)
	}
	if g.hpwl == 0 {
		g.hpwl = res.HPWL
	} else if math.Float64bits(res.HPWL) != math.Float64bits(g.hpwl) {
		g.broken++
	}
	g.runs = append(g.runs, sec)
	return sec, nil
}

// scale is the factor that turns a time measured between reference runs
// that took a and b seconds into the time on the nominal host.
func (g *gauge) scale(a, b float64) float64 {
	return g.nominal / ((a + b) / 2)
}

// runScale is the factor that turns a time measured anywhere in the run
// into the time on the nominal host, from the median of all its reference
// runs.
func (g *gauge) runScale() float64 {
	return g.nominal / median(g.runs)
}

// fact describes the run's reference runs, and counts a reference that did
// not repeat its result as a failed check.
func (g *gauge) fact(rep *report) {
	rep.fact("reference runs", "%d, p10 %.4g s, p50 %.4g s, p90 %.4g s (nominal %.4g s)",
		len(g.runs), percentile(g.runs, 10), median(g.runs), percentile(g.runs, 90), g.nominal)
	if g.broken > 0 {
		rep.fail("reference run: %d runs did not repeat the first run's HPWL %v", g.broken, g.hpwl)
	}
}
