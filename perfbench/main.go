// Command perfbench is the repository's benchmark. It runs one seeded
// workload in this process, measures it from outside the program by timing
// calls into the public functions of the placement packages, checks that the
// outputs are correct, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"place_s": {"value": 4.2, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a traced
// pass reports the per-layer split instead. NOTES.md explains the workloads.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload flow_me_newblue1 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// metric names one reported number and its unit. The two tables below must
// match BENCHMARK.json; a test checks that they do.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"},
	{"place_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"hpwl", "HPWL"},
	{"mem_p50_mb", "MiB"},
}

var perLayer = []metric{
	{"synth.generate_s", "s"},
	{"placer.setup_s", "s"},
	{"placer.loop_s", "s"},
	{"placer.unaccounted_s", "s"},
	{"placer.iters", "count"},
	{"placer.evals", "count"},
	{"placer.iter_p50_ms", "ms"},
	{"placer.iter_tail_ms", "ms"},
	{"placer.gpwl", "HPWL"},
	{"placer.alloc_kb_per_iter", "KiB"},
	{"placer.cold_iters", "count"},
	{"placer.warm_iters", "count"},
	{"wirelength.s", "s"},
	{"wirelength.share", "ratio"},
	{"moreau.net_evals", "count"},
	{"moreau.degenerate_ratio", "ratio"},
	{"moreau.large_sort_ratio", "ratio"},
	{"density.stamp_s", "s"},
	{"density.solve_s", "s"},
	{"density.gather_s", "s"},
	{"fft.dct_s", "s"},
	{"fft.synth_s", "s"},
	{"fft.share", "ratio"},
	{"optimizer.self_s", "s"},
	{"parallel.speedup", "ratio"},
	{"legalize.s", "s"},
	{"legalize.lgwl", "HPWL"},
	{"detailed.s", "s"},
	{"detailed.gain", "ratio"},
	{"netlist.small_net_ratio", "ratio"},
	{"netlist.hash_ms", "ms"},
	{"netlist.diff_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.queue_ms", "ms"},
	{"service.run_ms.hit", "ms"},
	{"service.run_ms.warm", "ms"},
	{"service.run_ms.cold", "ms"},
	{"service.outside_flow_ms.hit", "ms"},
	{"service.outside_flow_ms.warm", "ms"},
	{"service.outside_flow_ms.cold", "ms"},
	{"service.unaccounted_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_p90_ms", "ms"},
	{"warm_p50_ms", "ms"},
	{"warm_p90_ms", "ms"},
	{"cold_p50_ms", "ms"},
	{"warm_hpwl_ratio", "ratio"},
	{"ecocache.hit_ratio", "ratio"},
	{"ecocache.near_hit_ratio", "ratio"},
	{"ecocache.get_ms", "ms"},
	{"ecocache.put_ms", "ms"},
	{"ecocache.plan_ms", "ms"},
	{"checkpoint.snapshot_write_ms", "ms"},
	{"checkpoint.result_decode_ms", "ms"},
	{"trace_overhead", "ratio"},
}

// report is what one run produces. Metrics a workload does not exercise
// stay 0 (for example the service layer on a flow workload).
type report struct {
	attempted, failed int
	values            map[string]float64
	// facts are workload properties and observations printed beside the
	// numbers, in insertion order.
	facts [][2]string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) fact(key string, format string, args ...any) {
	r.facts = append(r.facts, [2]string{key, fmt.Sprintf(format, args...)})
}

// fail counts one failed unit of work and says why on standard error.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(seed int64, dur time.Duration, trace bool) (*report, error){
	"flow_me_newblue1": flowNewblue1.run,
	"flow_wa_ispd19":   flowISPD19.run,
	"serve_eco":        runServe,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run (flow_me_newblue1, flow_wa_ispd19, serve_eco)")
	seed := flag.Int64("seed", 1, "workload seed: seeds the designs, the placer and the request order")
	seconds := flag.Int("seconds", 30, "how long the timed run measures")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	pinned := -1
	if *trace == 0 {
		cpu, err := pinToOneCPU()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		pinned = cpu
	}
	mem := startMemSampler()
	rep, err := fn(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	memP50 := mem.stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	metrics := endToEnd
	if *trace == 1 {
		metrics = perLayer
	} else {
		rep.set("mem_p50_mb", memP50)
		rep.fact("peak RSS", "%.4g MiB (getrusage)", maxRSSMiB())
		rep.fact("pinned", "every thread to CPU %d, GOMAXPROCS 1", pinned)
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", *name, *seed, *seconds, *trace)
	rep.facts = append(rep.facts, machineFacts()...)
	correct, err := writeResult(os.Stdout, rep, metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// writeResult prints the facts and every metric of the table with its unit,
// then the JSON result line. It reports whether the run was correct.
func writeResult(w io.Writer, rep *report, metrics []metric) (bool, error) {
	for _, f := range rep.facts {
		fmt.Fprintf(w, "  %-24s %s\n", f[0], f[1])
	}
	fmt.Fprintf(w, "  %-24s %d of %d (fail_ratio %.4g)\n", "failed", rep.failed, rep.attempted, ratio(float64(rep.failed), float64(rep.attempted)))
	out := make(map[string]any, len(metrics))
	for _, m := range metrics {
		v := rep.values[m.name]
		fmt.Fprintf(w, "  %-32s %.6g %s\n", m.name, v, m.unit)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	correct := rep.failed == 0 && rep.attempted > 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintln(w, string(line))
	return correct, err
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// memEvery is the memory sampling period.
const memEvery = 50 * time.Millisecond

// sampleMem is false while a gauge run is in progress (gauge.go): the
// memory samples describe only the workload's own work.
var sampleMem atomic.Bool

func init() { sampleMem.Store(true) }

// memSampler samples, every memEvery, the memory the Go runtime holds from
// the operating system: all it has mapped minus the heap pages it has
// released. The median of those samples is steady from run to run; the
// process's peak RSS is not, because with a heap of a few MiB collected
// dozens of times a second it is set by when the collections happen.
type memSampler struct {
	quit, done chan struct{}
	samples    []float64
}

func startMemSampler() *memSampler {
	s := &memSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(memEvery)
		defer tick.Stop()
		m := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		for {
			if sampleMem.Load() {
				metrics.Read(m)
				s.samples = append(s.samples, float64(m[0].Value.Uint64()-m[1].Value.Uint64())/(1<<20))
			}
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the median sample in MiB.
func (s *memSampler) stop() float64 {
	close(s.quit)
	<-s.done
	return median(s.samples)
}

// maxRSSMiB is the peak resident set size of this process so far.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
