package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/detailed"
	"repro/internal/legalize"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/placer"
	"repro/internal/synth"
	"repro/internal/wirelength"
	rsynth "repro/perfbench/refgp/synth"
)

// flowWorkload is the paper's GP -> LG -> DP flow on seeded copies of one
// contest-mirror design, placed in turn for the length of a run. Timed flows
// run the placer on one thread: how much a second thread gains depends on
// whether the host's two CPUs share a core at the time (NOTES.md), so the
// parallel path is timed only in the traced run.
type flowWorkload struct {
	contest synth.ContestDesign
	scale   float64
	model   string
	// parallel is the worker count of one more GP run in the traced pass,
	// whose loop time against the one-thread loop gives parallel.speedup;
	// 0 for none.
	parallel int
	// designs is how many seeded copies a run places, each at least once
	// and the first at least twice. One copy's DPWL moves by several
	// percent from seed to seed; the mean over several keeps a run's
	// figures comparable across seeds.
	designs int
	// ref is the frozen engine's copy of contest, which the gauge places
	// at the same scale; nominal is the gauge's fixed reference time
	// (gauge.go).
	ref     rsynth.ContestDesign
	nominal float64
}

var (
	// flowNewblue1 is the paper's headline case and the only workload that
	// runs the parallel evaluation path (in its traced pass).
	flowNewblue1 = flowWorkload{synth.ISPD2006[1], 0.01, "ME", 2, 2, rsynth.ISPD2006[1], 1.75}
	// flowISPD19 runs the same engine with the WA kernel, so the Moreau
	// kernel and the worker pool stay idle. Its flows are long enough that
	// a run holds only 3 to 5 of them beside the reference runs, so a run
	// places one design: the median of its flows steadies place_s more
	// than a mean over two designs of one or two flows each.
	flowISPD19 = flowWorkload{synth.ISPD2019[1], 0.05, "WA", 0, 1, rsynth.ISPD2019[1], 2.9}
)

// spec is the j-th design of a run.
func (w flowWorkload) spec(seed int64, j int) synth.Spec {
	s := synth.SpecFromContest(w.contest, w.scale)
	s.Seed = subSeed(seed, streamDesign, uint64(j))
	return s
}

// newGauge makes the workload's gauge: the frozen engine's global placement
// of a copy of the design with one fixed seed.
func (w flowWorkload) newGauge() (*gauge, error) {
	s := rsynth.SpecFromContest(w.ref, w.scale)
	s.Seed = 1
	return newGauge(s, w.model, w.nominal)
}

// config is the flow configuration of the j-th design of a run.
func (w flowWorkload) config(seed int64, j, workers int) core.FlowConfig {
	cfg := core.DefaultFlowConfig(w.model)
	cfg.GP.Workers = workers
	cfg.GP.Seed = subSeed(seed, streamPlacer, uint64(j))
	return cfg
}

func (w flowWorkload) run(seed int64, dur time.Duration, trace bool) (*report, error) {
	if trace {
		return w.traced(seed)
	}
	return w.timed(seed, dur)
}

// flowRun is one untraced flow as the timed run measures it.
type flowRun struct {
	d   *netlist.Design
	res *core.FlowResult
	// gen is synth.Generate; setup is gen plus the time from the
	// core.RunFlow call to the first OnIteration callback; place is the
	// whole core.RunFlow call.
	gen, setup, place time.Duration
}

// placeOnce generates the j-th design and places it with one core.RunFlow
// call.
func (w flowWorkload) placeOnce(seed int64, j int) (*flowRun, error) {
	t0 := time.Now()
	d, err := synth.Generate(w.spec(seed, j))
	if err != nil {
		return nil, err
	}
	gen := time.Since(t0)
	cfg := w.config(seed, j, 1)
	// The hook marks the end of set-up. Any hook makes the engine compute
	// the exact HPWL every iteration, which a flow without one skips;
	// NOTES.md gives that cost.
	var first time.Time
	cfg.GP.OnIteration = func(placer.TrajectoryPoint) bool {
		if first.IsZero() {
			first = time.Now()
		}
		return true
	}
	t1 := time.Now()
	res, err := core.RunFlow(d, cfg)
	place := time.Since(t1)
	if err != nil {
		return nil, err
	}
	if first.IsZero() {
		return nil, errors.New("global placement ran no iteration")
	}
	return &flowRun{d: d, res: res, gen: gen, setup: gen + first.Sub(t1), place: place}, nil
}

// timed places the run's designs in turn until dur has passed, each at least
// once and the first at least twice, and reports the end-to-end metrics.
// Every flow must pass the legality check core.RunFlow ends with, and repeat
// the DPWL of its design's first flow bit for bit. The gauge runs before the
// first flow and after every flow, and each flow's times are scaled by the
// runs around it (gauge.go).
func (w flowWorkload) timed(seed int64, dur time.Duration) (*report, error) {
	rep := newReport()
	g, err := w.newGauge()
	if err != nil {
		return nil, err
	}
	var setups, raw []float64
	// Scaled core.RunFlow times and scaled synth.Generate + core.RunFlow
	// times, per design.
	places := make([][]float64, w.designs)
	works := make([][]float64, w.designs)
	first := make([]*flowRun, w.designs)
	before, err := g.measure()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for n := 0; n <= w.designs || time.Since(start) < dur; n++ {
		j := n % w.designs
		rep.attempted++
		f, err := w.placeOnce(seed, j)
		after, gerr := g.measure()
		if gerr != nil {
			return nil, gerr
		}
		k := g.scale(before, after)
		before = after
		if err != nil {
			rep.fail("flow %d (design %d): %v", n, j, err)
			continue
		}
		if !f.res.LegalizationOK {
			rep.fail("flow %d (design %d): %v", n, j, legalize.CheckLegal(f.d))
			continue
		}
		if first[j] == nil {
			first[j] = f
		} else if math.Float64bits(f.res.DPWL) != math.Float64bits(first[j].res.DPWL) {
			rep.fail("flow %d: DPWL %v differs from design %d's first flow's %v", n, f.res.DPWL, j, first[j].res.DPWL)
			continue
		}
		setups = append(setups, k*f.setup.Seconds())
		places[j] = append(places[j], k*f.place.Seconds())
		raw = append(raw, f.place.Seconds())
		works[j] = append(works[j], k*(f.gen+f.place).Seconds())
	}
	var dpwls, placeMedians []float64
	work := 0.0 // one flow of each design at its median time
	for j, f := range first {
		if f == nil {
			return rep, nil // every flow of design j failed
		}
		dpwls = append(dpwls, f.res.DPWL)
		placeMedians = append(placeMedians, median(places[j]))
		work += median(works[j])
		rep.fact(fmt.Sprintf("design %d", j), "DPWL %.10g after %d GP iterations, scaled place_s p50 %.4g over %d flows", f.res.DPWL, f.res.GPIters, median(places[j]), len(places[j]))
	}
	rep.set("setup_s", median(setups))
	rep.set("place_s", mean(placeMedians))
	rep.set("jobs_per_s", float64(w.designs)/work)
	rep.set("hpwl", mean(dpwls))
	describeDesign(rep, first[0].d)
	rep.fact("flows", "%d legal over %d designs; unscaled core.RunFlow time p50 %.4g s, min %.4g s, max %.4g s", len(raw), w.designs, median(raw), percentile(raw, 0), percentile(raw, 100))
	g.fact(rep)
	return rep, nil
}

// gpTrace is what the traced pass learns about one placer.PlaceContext call
// from the outside: the span split at the first OnIteration callback, the
// engine's obs phase totals after that split, per-iteration wall times, and
// the allocation delta over the loop.
type gpTrace struct {
	mu     sync.Mutex
	first  time.Time
	phases map[string]float64
	iters  []float64
	mem0   runtime.MemStats

	res               *placer.Result
	counters          map[string]int64
	span, setup, loop float64
	allocKBPerIter    float64
}

// tracedGP runs placer.PlaceContext with the program's own obs.Metrics
// attached and reads the numbers it already exposes.
func (w flowWorkload) tracedGP(d *netlist.Design, gp placer.Config, log *obs.Logger) (*gpTrace, error) {
	m, err := wirelength.ByName(w.model)
	if err != nil {
		return nil, err
	}
	gp.Model = m
	tr := &gpTrace{phases: make(map[string]float64)}
	met := obs.NewMetrics()
	met.OnPhase = func(name string, sec float64) {
		tr.mu.Lock()
		if !tr.first.IsZero() {
			tr.phases[name] += sec
		}
		tr.mu.Unlock()
	}
	met.OnIteration = func(sec float64) {
		tr.mu.Lock()
		tr.iters = append(tr.iters, sec)
		tr.mu.Unlock()
	}
	gp.Obs = &obs.Observer{Log: log, Metrics: met}
	gp.OnIteration = func(placer.TrajectoryPoint) bool {
		tr.mu.Lock()
		if tr.first.IsZero() {
			runtime.ReadMemStats(&tr.mem0)
			tr.first = time.Now()
		}
		tr.mu.Unlock()
		return true
	}
	t := time.Now()
	res, err := placer.PlaceContext(context.Background(), d, gp)
	span := time.Since(t)
	if err != nil {
		return nil, err
	}
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	tr.res = res
	tr.counters = met.Snapshot().Counters
	tr.span = span.Seconds()
	tr.setup = tr.first.Sub(t).Seconds()
	tr.loop = tr.span - tr.setup
	tr.allocKBPerIter = ratio(float64(mem1.TotalAlloc-tr.mem0.TotalAlloc)/1024, float64(res.Iterations-1))
	return tr, nil
}

// traced runs one untraced flow of the run's first design, then the same
// flow stage by stage with the engine's metrics attached, then (for a
// workload with parallel set) one GP run of that design on that many
// workers, and reports the per-layer split.
func (w flowWorkload) traced(seed int64) (*report, error) {
	rep := newReport()
	rep.attempted++
	ref, err := w.placeOnce(seed, 0)
	if err != nil {
		return nil, fmt.Errorf("untraced flow: %w", err)
	}
	if !ref.res.LegalizationOK {
		rep.fail("untraced flow: %v", legalize.CheckLegal(ref.d))
	}

	rep.attempted++
	t0 := time.Now()
	d, err := synth.Generate(w.spec(seed, 0))
	if err != nil {
		return nil, err
	}
	gen := time.Since(t0).Seconds()
	cfg := w.config(seed, 0, 1)
	var logBuf bytes.Buffer
	logger, err := obs.New(&logBuf, "json", obs.LevelInfo)
	if err != nil {
		return nil, err
	}
	tr, err := w.tracedGP(d, cfg.GP, logger)
	if err != nil {
		return nil, fmt.Errorf("traced global placement: %w", err)
	}
	tl := time.Now()
	lg, err := legalize.Abacus(d, legalize.Options{SiteAlign: true})
	if err != nil {
		return nil, fmt.Errorf("traced legalization: %w", err)
	}
	lgS := time.Since(tl).Seconds()
	td := time.Now()
	dp, err := detailed.Place(d, cfg.DP)
	if err != nil {
		return nil, fmt.Errorf("traced detailed placement: %w", err)
	}
	dpS := time.Since(td).Seconds()
	tc := time.Now()
	if err := legalize.CheckLegal(d); err != nil {
		rep.fail("traced flow: %v", err)
	}
	checkS := time.Since(tc).Seconds()
	if math.Float64bits(dp.HPWL) != math.Float64bits(ref.res.DPWL) {
		rep.fail("traced flow DPWL %v differs from the untraced flow's %v", dp.HPWL, ref.res.DPWL)
	}

	ph := tr.phases
	wl, stamp, solve, gather := ph[obs.PhaseWirelength], ph[obs.PhaseStamp], ph[obs.PhaseSolve], ph[obs.PhaseGather]
	dct := ph[obs.PhaseDCT]
	synthFFT := ph[obs.PhaseSynthPsi] + ph[obs.PhaseSynthEx] + ph[obs.PhaseSynthEy]
	evals := float64(tr.counters["moreau_net_evals"])

	rep.set("synth.generate_s", gen)
	rep.set("placer.setup_s", tr.setup)
	rep.set("placer.loop_s", tr.loop)
	rep.set("placer.unaccounted_s", tr.loop-ph[obs.PhaseStep])
	rep.set("placer.iters", float64(tr.res.Iterations))
	rep.set("placer.evals", float64(tr.res.Evaluations))
	rep.set("placer.iter_p50_ms", 1000*median(tr.iters))
	tailPct, tailV, ok := tail(tr.iters)
	if ok {
		rep.set("placer.iter_tail_ms", 1000*tailV)
	}
	rep.set("placer.gpwl", tr.res.HPWL)
	rep.set("placer.alloc_kb_per_iter", tr.allocKBPerIter)
	rep.set("wirelength.s", wl)
	rep.set("wirelength.share", ratio(wl, tr.loop))
	rep.set("moreau.net_evals", evals)
	rep.set("moreau.degenerate_ratio", ratio(float64(tr.counters["moreau_degenerate"]), evals))
	rep.set("moreau.large_sort_ratio", ratio(float64(tr.counters["moreau_large_sorts"]), evals))
	rep.set("density.stamp_s", stamp)
	rep.set("density.solve_s", solve)
	rep.set("density.gather_s", gather)
	rep.set("fft.dct_s", dct)
	rep.set("fft.synth_s", synthFFT)
	rep.set("fft.share", ratio(dct+synthFFT, tr.loop))
	rep.set("optimizer.self_s", ph[obs.PhaseStep]-(wl+stamp+solve+gather))
	rep.set("legalize.s", lgS)
	rep.set("legalize.lgwl", lg.HPWL)
	rep.set("detailed.s", dpS)
	rep.set("detailed.gain", 1-dp.HPWL/lg.HPWL)
	rep.set("netlist.small_net_ratio", smallNetRatio(d))
	rep.set("trace_overhead", (tr.span+lgS+dpS+checkS)/ref.place.Seconds())

	if w.parallel > 1 {
		rep.attempted++
		pd, err := synth.Generate(w.spec(seed, 0))
		if err != nil {
			return nil, err
		}
		par, err := w.tracedGP(pd, w.config(seed, 0, w.parallel).GP, nil)
		if err != nil {
			return nil, fmt.Errorf("parallel global placement: %w", err)
		}
		rep.set("parallel.speedup", tr.loop/par.loop)
		rep.fact("parallel run", "%d GP iterations, loop %.4g s at Workers %d vs %.4g s at Workers 1", par.res.Iterations, par.loop, w.parallel, tr.loop)
	}

	describeDesign(rep, d)
	rep.fact("grid", "%s", logField(logBuf.Bytes(), "gp: starting", "grid"))
	rep.fact("GP", "%d iterations, %d evaluations, iteration tail p%g (n=%d)", tr.res.Iterations, tr.res.Evaluations, tailPct, len(tr.iters))
	rep.fact("untraced flow", "place_s %.4g, DPWL %.10g", ref.place.Seconds(), ref.res.DPWL)
	return rep, nil
}

// describeDesign records the workload properties of a design.
func describeDesign(rep *report, d *netlist.Design) {
	st := d.ComputeStats()
	large := 0
	for e := range d.Nets {
		if d.NetDegree(e) > 16 {
			large++
		}
	}
	rep.fact("design", "%s: %d cells (%d movable, %d macros), %d nets, %d pins, utilization %.2f, target density %.2f",
		d.Name, d.NumCells(), st.NumMovable, st.NumMacros, st.NumNets, st.NumPins, st.Utilization, d.TargetDensity)
	rep.fact("net degrees", "small_net_ratio (<=4 pins) %.4f, >16 pins %.4f, max %d",
		smallNetRatio(d), ratio(float64(large), float64(d.NumNets())), st.MaxDegree)
}

// smallNetRatio is the share of nets with at most four pins.
func smallNetRatio(d *netlist.Design) float64 {
	small := 0
	for e := range d.Nets {
		if d.NetDegree(e) <= 4 {
			small++
		}
	}
	return ratio(float64(small), float64(d.NumNets()))
}

// logField returns field key of the first JSON log record whose message is
// msg, or "unknown".
func logField(log []byte, msg, key string) string {
	for _, line := range bytes.Split(log, []byte("\n")) {
		var rec map[string]any
		if json.Unmarshal(line, &rec) != nil || rec["msg"] != msg {
			continue
		}
		if v, ok := rec[key]; ok {
			return fmt.Sprint(v)
		}
	}
	return "unknown"
}
