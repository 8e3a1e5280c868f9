// Command experiments regenerates the paper's tables and figures on the
// synthetic contest suites.
//
// Usage:
//
//	experiments -exp table1|table2|table3|fig1a|fig1b|fig3|stability|all \
//	            [-scale2006 f] [-scale2019 f] [-iters n] [-overflow f] \
//	            [-workers n] [-samples n] [-quiet]
//
// Full-scale regeneration (the defaults) takes CPU-minutes for table2/table3;
// pass smaller scales for a quick look, e.g. -scale2006 0.002 -scale2019 0.005.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/placer"
	"repro/internal/plot"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: table1, table2, table3, fig1a, fig1b, fig3, stability, ablation, seeds, all")
		scale2006 = flag.Float64("scale2006", 0, "ISPD2006 scale factor (default 1/100)")
		scale2019 = flag.Float64("scale2019", 0, "ISPD2019 scale factor (default 1/20)")
		iters     = flag.Int("iters", 0, fmt.Sprintf("max global placement iterations (0 = placer.DefaultMaxIters, %d)", placer.DefaultMaxIters))
		overflow  = flag.Float64("overflow", 0, fmt.Sprintf("stop overflow (0 = placer.DefaultStopOverflow, %g)", placer.DefaultStopOverflow))
		workers   = flag.Int("workers", 0, "concurrent designs (default NumCPU/2)")
		samples   = flag.Int("samples", 3000, "random nets per point for fig1b")
		quiet     = flag.Bool("quiet", false, "suppress per-flow progress lines")
		svgDir    = flag.String("svg", "", "also write figures as SVG files into this directory")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM cancels in-flight flows at the next GP iteration.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := experiments.Options{
		Scale2006:    *scale2006,
		Scale2019:    *scale2019,
		MaxIters:     *iters,
		StopOverflow: *overflow,
		Workers:      *workers,
		Ctx:          ctx,
	}
	if !*quiet {
		o.Progress = os.Stderr
	}
	out := io.Writer(os.Stdout)

	run := func(name string) error {
		switch name {
		case "table1":
			return experiments.Table1(out, o)
		case "table2":
			_, err := experiments.Table2(out, o)
			return err
		case "table3":
			_, err := experiments.Table3(out, o)
			return err
		case "fig1a":
			series, _ := experiments.Fig1a(out)
			return writeSVG(*svgDir, "fig1a.svg", &plot.Chart{
				Title: "Fig. 1(a) WA non-convexity on a 3-pin net", XLabel: "x", YLabel: "approx dx",
				Series: series,
			})
		case "fig1b":
			pts := experiments.Fig1b(out, *samples, 42)
			return writeSVG(*svgDir, "fig1b.svg", &plot.Chart{
				Title:  "Fig. 1(b) mean approximation error vs smoothing parameter",
				XLabel: "smoothing parameter", YLabel: "mean abs error",
				LogX: true, Series: experiments.Fig1bSeries(pts),
			})
		case "fig3":
			blocks, err := experiments.Fig3(out, o)
			if err != nil {
				return err
			}
			for _, b := range blocks {
				if err := writeSVG(*svgDir, b.Label+".svg", &plot.Chart{
					Title: b.Label + " HPWL vs overflow", XLabel: "density overflow",
					YLabel: "HPWL", Series: b.Series,
				}); err != nil {
					return err
				}
			}
			return nil
		case "stability":
			experiments.StabilityStudy(out)
			return nil
		case "ablation":
			_, err := experiments.Ablation(out, o)
			return err
		case "seeds":
			_, err := experiments.SeedStudy(out, o, nil)
			return err
		}
		return fmt.Errorf("unknown experiment %q", name)
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "fig1a", "fig1b", "stability", "ablation", "fig3", "table2", "table3"}
	}
	for _, name := range names {
		fmt.Fprintf(out, "\n==== %s ====\n", name)
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

// writeSVG renders a chart into dir/name; a blank dir disables SVG output.
func writeSVG(dir, name string, c *plot.Chart) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := c.Render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
