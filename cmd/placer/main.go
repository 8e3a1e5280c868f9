// Command placer runs the full placement flow (global placement with a
// chosen wirelength model, Abacus legalization, detailed placement) on a
// Bookshelf design or a generated synthetic benchmark.
//
// Usage:
//
//	placer -aux design.aux -model ME [-iters n] [-out outdir]
//	placer -suite ispd2006 -design newblue1 -scale 0.01 -model ME
//	placer -cells 2000 -model WA
//
// The flow prints GPWL/LGWL/DPWL and per-stage runtimes; -out writes the
// placed design back as a Bookshelf file set.
//
// With -checkpoint the run snapshots its full placement state into the
// directory (every -checkpoint-every iterations, and once more on Ctrl-C),
// and -resume restarts an interrupted run from its latest snapshot — with
// the same design and model it finishes bit-identically to a
// never-interrupted run.
//
// With -guard the loop watches its own numerical health every iteration
// (finite positions, finite objective, bounded HPWL growth) and rolls back
// to a recent in-memory snapshot on a violation, retrying with a shrunken
// step; a run that cannot recover exits 3 with a divergence report instead
// of emitting NaN positions.
//
// With -trace the run records one span per engine phase per iteration and
// writes them on exit: a path ending in .jsonl gets line-delimited JSON,
// anything else gets Chrome trace_event JSON for chrome://tracing or
// https://ui.perfetto.dev. -log-level debug streams per-iteration progress
// through the structured logger (-log-format text|json) on stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"repro/internal/bookshelf"
	"repro/internal/checkpoint"
	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/placer"
	"repro/internal/plot"
	"repro/internal/synth"
)

func main() {
	var (
		aux     = flag.String("aux", "", "Bookshelf .aux file to place")
		suite   = flag.String("suite", "", "synthetic suite: ispd2006 or ispd2019")
		design  = flag.String("design", "", "design name within -suite (e.g. newblue1)")
		scale   = flag.Float64("scale", 0.01, "suite scale factor")
		cells   = flag.Int("cells", 0, "generate an ad-hoc synthetic design with this many cells")
		model   = flag.String("model", "ME", "wirelength model: LSE, WA, BiG_CHKS, BiG_WA, ME, HPWL")
		iters   = flag.Int("iters", placer.DefaultMaxIters, "max global placement iterations")
		overfl  = flag.Float64("overflow", placer.DefaultStopOverflow, "global placement stop overflow")
		seed    = flag.Int64("seed", 1, "random seed")
		tetris  = flag.Bool("tetris", false, "use the greedy Tetris legalizer instead of Abacus")
		skipDP  = flag.Bool("skip-dp", false, "stop after legalization")
		outDir  = flag.String("out", "", "write the placed design as Bookshelf files to this directory")
		verbose = flag.Bool("v", false, "print the GP trajectory")
		useISM  = flag.Bool("ism", false, "enable independent-set matching in detailed placement")
		congest = flag.Bool("congestion", false, "report RUDY congestion statistics of the final placement")
		plotDir = flag.String("plot", "", "write placement.svg and congestion.svg into this directory")
		ckptDir = flag.String("checkpoint", "", "write placement snapshots into this directory")
		ckptEv  = flag.Int("checkpoint-every", 50, "snapshot cadence in GP iterations (with -checkpoint)")
		resume  = flag.Bool("resume", false, "warm-start from the latest snapshot in -checkpoint")
		guardOn = flag.Bool("guard", false, "enable the numerical-health guard (divergence detection + rollback)")
		guardRt = flag.Int("guard-retries", 0, "guard rollback budget per divergence episode (0 = default)")
		traceTo = flag.String("trace", "", "write a span trace to this file (.jsonl = JSONL, else Chrome trace JSON)")
		logFmt  = flag.String("log-format", "text", "log encoding: text or json")
		logLvl  = flag.String("log-level", "warn", "log level: debug, info, warn, error")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLvl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "placer: %v\n", err)
		os.Exit(2)
	}
	logger, err := obs.New(os.Stderr, *logFmt, level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "placer: %v\n", err)
		os.Exit(2)
	}

	d, err := loadDesign(*aux, *suite, *design, *scale, *cells, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "placer: %v\n", err)
		os.Exit(1)
	}
	stats := d.ComputeStats()
	fmt.Printf("design %s: %d movable (%d macros), %d fixed, %d nets, %d pins, util %.2f\n",
		stats.Name, stats.NumMovable, stats.NumMacros, stats.NumFixed,
		stats.NumNets, stats.NumPins, stats.Utilization)

	cfg := core.DefaultFlowConfig(*model)
	cfg.GP = placer.Config{MaxIters: *iters, StopOverflow: *overfl, Seed: *seed}
	if *verbose {
		cfg.GP.RecordEvery = 25
	}
	observer := &obs.Observer{Log: logger, Metrics: obs.NewMetrics()}
	if *traceTo != "" {
		observer.Trace = obs.NewTracer()
	}
	cfg.GP.Obs = observer
	cfg.UseTetris = *tetris
	cfg.SkipDetailed = *skipDP
	cfg.DP.UseISM = *useISM
	if *ckptDir != "" {
		cfg.GP.Checkpoint = placer.CheckpointConfig{Every: *ckptEv, Dir: *ckptDir}
	}
	if *resume {
		if *ckptDir == "" {
			fmt.Fprintln(os.Stderr, "placer: -resume needs -checkpoint to know where the snapshots are")
			os.Exit(1)
		}
		// ResumeDir skips corrupt and fingerprint-mismatched snapshots and
		// degrades to a cold start when nothing usable is left.
		cfg.GP.ResumeDir = *ckptDir
	}
	if *guardOn {
		cfg.GP.Guard = &guard.Config{MaxRetries: *guardRt}
	}
	// Transient snapshot-write failures are retried with backoff; surface
	// each retry as a warning so flaky storage is visible.
	checkpoint.OnWriteRetry = func(path string, attempt int, err error) {
		logger.Warn("checkpoint write retried", "path", path, "attempt", attempt, "err", err)
	}

	// Ctrl-C / SIGTERM cancels the flow at the next placement iteration;
	// with -checkpoint the engine snapshots its state on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := core.RunFlowContext(ctx, d, cfg)
	if *traceTo != "" {
		// Flush whatever spans were recorded even on an interrupted run: a
		// partial trace of a slow design is exactly what you want to inspect.
		if werr := writeTrace(observer.Trace, *traceTo); werr != nil {
			fmt.Fprintf(os.Stderr, "placer: trace: %v\n", werr)
		} else {
			fmt.Fprintf(os.Stderr, "wrote trace %s (%d spans)\n", *traceTo, len(observer.Trace.Events()))
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "placer: interrupted, placement abandoned")
			if *ckptDir != "" {
				fmt.Fprintf(os.Stderr, "placer: rerun with -checkpoint %s -resume to continue\n", *ckptDir)
			}
			os.Exit(130)
		}
		var de *guard.DivergenceError
		if errors.As(err, &de) {
			fmt.Fprintf(os.Stderr, "placer: %v\n", err)
			fmt.Fprintf(os.Stderr, "placer: the design was left at the last good iteration (%d); rerun with -log-level debug for the violation history\n", de.LastGood)
			os.Exit(3)
		}
		fmt.Fprintf(os.Stderr, "placer: %v\n", err)
		os.Exit(1)
	}
	if res.ResumedFrom > 0 {
		fmt.Printf("resumed from snapshot at iteration %d\n", res.ResumedFrom)
	}
	if res.Capped {
		fmt.Printf("global placement stopped at its iteration cap (%d) with overflow %.3f above the target; raise -iters\n",
			res.GPIters, res.Overflow)
	}
	if res.GuardTrips > 0 {
		fmt.Printf("guard: %d trips, %d rollbacks, %d recoveries\n",
			res.GuardTrips, res.GuardRollbacks, res.GuardRecoveries)
	}
	if *verbose {
		fmt.Println("iter  overflow  hpwl        param      lambda")
		for _, p := range res.Trajectory {
			fmt.Printf("%-5d %-9.3f %-11.4g %-10.4g %-10.4g\n", p.Iter, p.Overflow, p.HPWL, p.Param, p.Lambda)
		}
	}
	fmt.Printf("model=%s GPWL=%.6g LGWL=%.6g DPWL=%.6g overflow=%.3f iters=%d\n",
		res.Model, res.GPWL, res.LGWL, res.DPWL, res.Overflow, res.GPIters)
	fmt.Printf("runtime: GP=%.2fs LG=%.2fs DP=%.2fs total=%.2fs legal=%v\n",
		res.GPSeconds, res.LGSeconds, res.DPSeconds, res.TotalSeconds, res.LegalizationOK)
	printPhaseSummary(observer.Metrics)

	if *congest {
		cmap, err := congestion.RUDY(d, 64, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "placer: congestion: %v\n", err)
			os.Exit(1)
		}
		cs := cmap.ComputeStats()
		fmt.Printf("congestion (RUDY 64x64): peak=%.4f p99=%.4f p95=%.4f avg=%.4f hotspots=%.1f%%\n",
			cs.Peak, cs.P99, cs.P95, cs.Avg, 100*cs.HotspotFrac)
	}

	if *plotDir != "" {
		if err := writePlots(d, *plotDir); err != nil {
			fmt.Fprintf(os.Stderr, "placer: plots: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s/placement.svg and congestion.svg\n", *plotDir)
	}

	if *outDir != "" {
		auxOut, err := bookshelf.WriteDesign(d, *outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "placer: writing output: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", auxOut)
	}
}

// writeTrace exports the recorded spans: Chrome trace_event JSON by default,
// JSONL when the path ends in .jsonl.
func writeTrace(t *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = t.WriteJSONL(f)
	} else {
		err = t.WriteChromeTrace(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printPhaseSummary breaks the GP runtime down by engine phase, sorted by
// total time spent, then prints the evaluation count and the named counters
// sorted by name. eval_reused explains why the wirelength and density
// phases ran fewer times than there were evaluations.
func printPhaseSummary(m *obs.Metrics) {
	snap := m.Snapshot()
	if len(snap.PhaseSeconds) == 0 {
		return
	}
	phases := make([]string, 0, len(snap.PhaseSeconds))
	for p := range snap.PhaseSeconds {
		phases = append(phases, p)
	}
	sort.Slice(phases, func(i, j int) bool {
		return snap.PhaseSeconds[phases[i]] > snap.PhaseSeconds[phases[j]]
	})
	fmt.Println("phase            seconds   calls")
	for _, p := range phases {
		fmt.Printf("%-16s %-9.3f %d\n", p, snap.PhaseSeconds[p], snap.PhaseCalls[p])
	}
	fmt.Printf("evaluations: %d\n", snap.Evaluations)
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s: %d\n", name, snap.Counters[name])
	}
}

// writePlots renders the placement and its RUDY congestion heatmap as SVGs.
func writePlots(d *netlist.Design, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pf, err := os.Create(filepath.Join(dir, "placement.svg"))
	if err != nil {
		return err
	}
	if err := plot.PlacementSVG(pf, d, 900); err != nil {
		pf.Close()
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}
	cmap, err := congestion.RUDY(d, 64, 64)
	if err != nil {
		return err
	}
	cf, err := os.Create(filepath.Join(dir, "congestion.svg"))
	if err != nil {
		return err
	}
	if err := plot.HeatmapSVG(cf, cmap.Demand, cmap.Nx, cmap.Ny, "RUDY congestion "+d.Name); err != nil {
		cf.Close()
		return err
	}
	return cf.Close()
}

func loadDesign(aux, suiteName, designName string, scale float64, cells int, seed int64) (*netlist.Design, error) {
	switch {
	case aux != "":
		return bookshelf.ReadDesign(aux)
	case suiteName != "":
		specs, err := synth.SuiteScaled(suiteName, scale)
		if err != nil {
			return nil, err
		}
		for _, s := range specs {
			if s.Name == designName {
				return synth.Generate(s)
			}
		}
		return nil, fmt.Errorf("design %q not in suite %s", designName, suiteName)
	case cells > 0:
		return synth.Generate(synth.Spec{
			Name:          fmt.Sprintf("adhoc%d", cells),
			NumMovable:    cells,
			NumPads:       8,
			NumNets:       cells + cells/10,
			AvgDegree:     3.9,
			Utilization:   0.7,
			TargetDensity: 1.0,
			Seed:          seed,
		})
	}
	return nil, fmt.Errorf("give one of -aux, -suite/-design, or -cells (see -h)")
}
