// Command placerload is the fleet load/soak harness: it drives concurrent
// placement jobs through a placercoord coordinator from several tenants,
// honoring 429 + Retry-After backpressure, and records end-to-end latency
// percentiles (p50/p95/p99), rejection counts, and the coordinator's
// routing counters (affinity hits, steals, re-routes) into a benchmark
// JSON file.
//
// Usage:
//
//	placerload -coordinator http://localhost:7878
//	           [-jobs 32] [-concurrency 8] [-tenants default]
//	           [-designs 4] [-cells 400] [-iters 60] [-out BENCH_PR10.json]
//	           [-resubmit-ratio 0] [-soak 0]
//	           [-chaos] [-chaos-seed 1] [-chaos-latency 25ms]
//	           [-require-all-done]
//
// -designs controls how many distinct synthetic designs the job stream
// cycles through: fewer designs than jobs means resubmissions, which is
// what exercises checkpoint-affinity routing. With -soak > 0 the harness
// loops the whole job batch until the duration elapses (a soak run),
// accumulating latencies across rounds.
//
// -resubmit-ratio turns on ECO resubmission traffic: that fraction of the
// job stream re-sends designs that already completed once, alternating
// between byte-identical duplicates (served from the workers' result cache
// without a GP loop) and ECO children — the same design with a small
// synthetic perturbation and a "parent" reference, which the coordinator
// routes to the worker holding the parent's cached placement for a
// warm start. The report then gains an "eco" section with cache-outcome
// counts and warm-vs-cold latency percentiles.
//
// -chaos runs the whole load through a deterministic fault-injecting
// transport (internal/chaos): periodic latency spikes, dropped connections,
// and synthetic 500s on the harness↔coordinator path, seeded by -chaos-seed
// so a failing schedule reproduces exactly. Every job then submits with an
// idempotency key and retries transient failures with jittered backoff, so
// however many submits reach the coordinator at most one job exists per
// slot. The report gains a "chaos" section with injected-fault counts,
// retry totals, and the tail latencies the faults produced.
//
// -require-all-done makes the harness exit non-zero unless every job slot
// reached state "done" — the zero-job-loss assertion the chaos smoke test
// (make chaos-demo) relies on after killing the coordinator mid-load.
//
// The output file is merged, not overwritten: placerload owns only the
// top-level "fleet_load" key, so `make bench` results in the same file
// survive.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/fleet/client"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "placerload: %v\n", err)
		os.Exit(1)
	}
}

// jobResult is one job's outcome.
type jobResult struct {
	latency  time.Duration
	state    string
	rejected int    // 429s absorbed before acceptance
	retries  int    // transient submit retries under the idempotency key
	cache    string // worker cache outcome: "hit", "near_hit", "miss", or ""
	resubmit bool   // job was injected by the -resubmit-ratio stream
	fleetID  string // coordinator job ID (parent handle for ECO children)
	err      error
}

// loadReport is the "fleet_load" document merged into the bench JSON.
type loadReport struct {
	Coordinator string  `json:"coordinator"`
	Jobs        int     `json:"jobs"`
	Concurrency int     `json:"concurrency"`
	Tenants     int     `json:"tenants"`
	Designs     int     `json:"designs"`
	Cells       int     `json:"cells"`
	Iters       int     `json:"iters"`
	SoakSeconds float64 `json:"soak_seconds,omitempty"`
	CPUs        int     `json:"cpus"`

	Done      int     `json:"done"`
	Failed    int     `json:"failed"`
	Errors    int     `json:"errors"`
	Rejected  int     `json:"rejected_429"`
	P50Ms     float64 `json:"latency_p50_ms"`
	P95Ms     float64 `json:"latency_p95_ms"`
	P99Ms     float64 `json:"latency_p99_ms"`
	MeanMs    float64 `json:"latency_mean_ms"`
	MaxMs     float64 `json:"latency_max_ms"`
	WallSecs  float64 `json:"wall_seconds"`
	Throughpt float64 `json:"jobs_per_second"`

	Fleet fleet.Counters `json:"fleet_counters"`
	Eco   *ecoReport     `json:"eco,omitempty"`
	Chaos *chaosReport   `json:"chaos,omitempty"`
}

// chaosReport is the fault-injection section of the fleet_load document,
// present when -chaos is on: what was injected, how hard the harness had to
// retry, and what the faults did to the latency tail. Zero-loss recovery
// shows up as Done == Jobs×rounds with SubmitRetries > 0 and the
// coordinator's recovered/rerouted counters in fleet_counters.
type chaosReport struct {
	Seed          int64       `json:"seed"`
	Transport     chaos.Stats `json:"transport"`
	SubmitRetries int         `json:"submit_retries"`
	// TailP99Ms/TailMaxMs duplicate the top-level p99/max for easy diffing
	// against a fault-free run of the same shape.
	TailP99Ms float64 `json:"tail_p99_ms"`
	TailMaxMs float64 `json:"tail_max_ms"`
}

// ecoReport is the resubmission-traffic section of the fleet_load document,
// present when -resubmit-ratio > 0. Latency percentiles are split by the
// worker's cache outcome so the warm-vs-cold serving gap is visible: "hit"
// jobs skip the GP loop entirely, "near_hit" jobs warm-start from a parent
// placement with most lanes frozen, "cold" jobs run the full flow.
type ecoReport struct {
	ResubmitRatio float64 `json:"resubmit_ratio"`
	Resubmitted   int     `json:"resubmitted"`
	// Hits/NearHits/Misses count cache outcomes across ALL done jobs — in a
	// soak run, later cold rounds of an already-seen design hit the cache
	// too, not just the injected resubmissions. HitRate is narrower: the
	// fraction of injected resubmissions served from cache (hit or near hit).
	Hits     int     `json:"hits"`
	NearHits int     `json:"near_hits"`
	Misses   int     `json:"misses"`
	HitRate  float64 `json:"hit_rate"`

	HitP50Ms  float64 `json:"hit_latency_p50_ms"`
	HitP95Ms  float64 `json:"hit_latency_p95_ms"`
	WarmP50Ms float64 `json:"warm_latency_p50_ms"`
	WarmP95Ms float64 `json:"warm_latency_p95_ms"`
	ColdP50Ms float64 `json:"cold_latency_p50_ms"`
	ColdP95Ms float64 `json:"cold_latency_p95_ms"`
	// WarmVsColdP50 is warm p50 / cold p50 — below 1.0 means ECO
	// resubmissions are served faster than cold starts.
	WarmVsColdP50 float64 `json:"warm_vs_cold_p50,omitempty"`
}

// parentBook remembers, per design index, the fleet job ID of the first
// completed cold run — the handle ECO children pass as spec.Parent. First
// writer wins so every child of a design names the same parent.
type parentBook struct {
	mu  sync.Mutex
	ids map[int]string
	seq int // resubmission counter, alternates exact vs ECO
}

func newParentBook() *parentBook { return &parentBook{ids: make(map[int]string)} }

func (b *parentBook) get(d int) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	id, ok := b.ids[d]
	return id, ok
}

func (b *parentBook) put(d int, id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.ids[d]; !ok {
		b.ids[d] = id
	}
}

func (b *parentBook) nextSeq() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	return b.seq
}

func run(argv []string) error {
	fs := flag.NewFlagSet("placerload", flag.ExitOnError)
	var (
		coordinator = fs.String("coordinator", "http://localhost:7878", "coordinator base URL")
		jobs        = fs.Int("jobs", 32, "jobs per round")
		concurrency = fs.Int("concurrency", 8, "concurrent submitters")
		tenants     = fs.String("tenants", "default", "comma-separated tenant names to spread load across")
		designs     = fs.Int("designs", 4, "distinct synthetic designs cycled through (fewer than -jobs exercises checkpoint affinity)")
		cells       = fs.Int("cells", 400, "movable cells per synthetic design")
		iters       = fs.Int("iters", 60, "GP iteration budget per job")
		soak        = fs.Duration("soak", 0, "repeat rounds until this duration elapses (0 = one round)")
		resubmit    = fs.Float64("resubmit-ratio", 0, "fraction of jobs re-sent as cache resubmissions (alternating exact duplicates and perturbed ECO children)")
		out         = fs.String("out", "BENCH_PR10.json", "bench JSON file to merge the fleet_load report into")
		timeout     = fs.Duration("timeout", 10*time.Minute, "overall harness deadline")
		chaosOn     = fs.Bool("chaos", false, "inject deterministic faults (latency, drops, 500s) into the coordinator path")
		chaosSeed   = fs.Int64("chaos-seed", 1, "fault-plan seed (same seed + same request sequence = same injections)")
		chaosLat    = fs.Duration("chaos-latency", 25*time.Millisecond, "injected latency-spike size for -chaos")
		requireAll  = fs.Bool("require-all-done", false, "exit non-zero unless every job reached state done (zero-loss assertion)")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	tenantNames := strings.Split(*tenants, ",")
	if *designs <= 0 {
		*designs = 1
	}
	if *resubmit < 0 || *resubmit > 1 {
		return fmt.Errorf("-resubmit-ratio %v out of [0,1]", *resubmit)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// The probe client stays fault-free even under -chaos: it is harness
	// bookkeeping (worker discovery, final counters), not the traffic whose
	// resilience is being measured.
	probe := &client.Client{Base: *coordinator}
	if st, err := probe.Fleet(ctx); err != nil {
		return fmt.Errorf("coordinator unreachable: %w", err)
	} else if len(st.Workers) == 0 {
		return errors.New("fleet has no registered workers; start placerd with -coordinator first")
	}

	var tr *chaos.Transport
	httpc := &http.Client{Timeout: 30 * time.Second}
	if *chaosOn {
		tr = chaos.NewTransport(nil, *chaosSeed, 16, chaos.DefaultRules(*chaosLat)...)
		httpc.Transport = tr
		fmt.Fprintf(os.Stderr, "placerload: chaos on (seed %d, latency %s)\n", *chaosSeed, *chaosLat)
	}
	// Idempotency keys are namespaced by a per-run nonce so two harness runs
	// against the same coordinator never dedupe each other's slots.
	runID := time.Now().UnixNano()

	var (
		mu      sync.Mutex
		results []jobResult
	)
	book := newParentBook()
	start := time.Now()
	round := 0
	for {
		round++
		runRound(ctx, *coordinator, httpc, runID, tenantNames, *jobs, *concurrency, *designs, *cells, *iters, round, *resubmit, book, func(r jobResult) {
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		})
		if *soak <= 0 || time.Since(start) >= *soak || ctx.Err() != nil {
			break
		}
		fmt.Fprintf(os.Stderr, "placerload: round %d done (%d results, %s elapsed)\n",
			round, len(results), time.Since(start).Round(time.Second))
	}
	wall := time.Since(start)

	st, err := probe.Fleet(ctx)
	if err != nil {
		return fmt.Errorf("final fleet status: %w", err)
	}

	rep := buildReport(results, wall, st.Counters, *resubmit)
	if tr != nil {
		retries := 0
		for _, r := range results {
			retries += r.retries
		}
		rep.Chaos = &chaosReport{
			Seed:          *chaosSeed,
			Transport:     tr.Stats(),
			SubmitRetries: retries,
			TailP99Ms:     rep.P99Ms,
			TailMaxMs:     rep.MaxMs,
		}
	}
	rep.Coordinator = *coordinator
	rep.Jobs = *jobs
	rep.Concurrency = *concurrency
	rep.Tenants = len(tenantNames)
	rep.Designs = *designs
	rep.Cells = *cells
	rep.Iters = *iters
	rep.SoakSeconds = soak.Seconds()
	rep.CPUs = runtime.NumCPU()

	if err := mergeReport(*out, rep); err != nil {
		return err
	}
	fmt.Printf("placerload: %d done, %d failed, %d errors, %d 429s | p50 %.0fms p95 %.0fms p99 %.0fms | affinity %d, stolen %d, rerouted %d | %s\n",
		rep.Done, rep.Failed, rep.Errors, rep.Rejected, rep.P50Ms, rep.P95Ms, rep.P99Ms,
		rep.Fleet.AffinityHits, rep.Fleet.Stolen, rep.Fleet.Rerouted, *out)
	if rep.Eco != nil {
		fmt.Printf("placerload: eco %d resubmitted, %d hits, %d near hits, %d misses | hit p50 %.0fms, warm p50 %.0fms, cold p50 %.0fms | parent routes %d\n",
			rep.Eco.Resubmitted, rep.Eco.Hits, rep.Eco.NearHits, rep.Eco.Misses,
			rep.Eco.HitP50Ms, rep.Eco.WarmP50Ms, rep.Eco.ColdP50Ms, rep.Fleet.ParentRoutes)
	}
	if rep.Chaos != nil {
		fmt.Printf("placerload: chaos injected %d (latency %d, drops %d, 500s %d) across %d requests | %d submit retries | recovered %d, rerouted %d\n",
			rep.Chaos.Transport.Injected(), rep.Chaos.Transport.Latency, rep.Chaos.Transport.Drops,
			rep.Chaos.Transport.HTTP500s, rep.Chaos.Transport.Requests, rep.Chaos.SubmitRetries,
			rep.Fleet.Recovered, rep.Fleet.Rerouted)
	}
	if *requireAll && rep.Done != len(results) {
		return fmt.Errorf("job loss: %d of %d slots reached done (%d failed, %d errors)",
			rep.Done, len(results), rep.Failed, rep.Errors)
	}
	return nil
}

// runRound submits one batch of jobs through a bounded worker pool and
// waits for every job to reach a terminal state. With ratio > 0 that
// fraction of the stream (spread evenly across job indices) is turned into
// resubmissions of designs whose first run already completed: even
// resubmission slots re-send the byte-identical spec (exact cache hit), odd
// slots send an ECO child — the same design plus a small perturbation and
// the parent's fleet job ID (near hit via warm start).
func runRound(ctx context.Context, base string, httpc *http.Client, runID int64, tenants []string, jobs, concurrency, designs, cells, iters, round int, ratio float64, book *parentBook, record func(jobResult)) {
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			d := i % designs
			spec := specFor(d, cells, iters)
			resub := false
			// Deterministic even spread: slot i is a resubmission when the
			// running count int(i*ratio) ticks up, and a parent exists.
			if ratio > 0 && int(float64(i+1)*ratio) > int(float64(i)*ratio) {
				if parentID, ok := book.get(d); ok {
					resub = true
					if book.nextSeq()%2 == 1 {
						spec.Parent = parentID
						spec.Design.Perturb = &service.PerturbSpec{
							Seed:     int64(round)*100000 + int64(i),
							CellFrac: 0.01,
						}
					}
				}
			}
			// A generous retry budget: the harness must ride out a
			// coordinator kill/restart window, not just single blips.
			c := &client.Client{Base: base, Tenant: tenants[i%len(tenants)], HTTP: httpc, Retries: 12}
			// One key per (run, round, slot): stable across this slot's
			// submit retries, unique across everything else.
			key := fmt.Sprintf("load-%x-r%d-i%d", runID, round, i)
			r := oneJob(ctx, c, spec, key)
			r.resubmit = resub
			record(r)
			if !resub && r.err == nil && r.state == string(service.StateDone) {
				book.put(d, r.fleetID)
			}
		}(i)
	}
	wg.Wait()
}

// specFor builds the d-th synthetic design spec. The seed is a pure
// function of d, so two jobs with the same d are byte-identical specs —
// the coordinator's affinity map routes the repeat to the same worker.
func specFor(d, cells, iters int) service.JobSpec {
	return service.JobSpec{
		Design: service.DesignSpec{Synth: &service.SynthSpec{
			Name:  fmt.Sprintf("load-%03d", d),
			Cells: cells,
			Seed:  int64(1000 + d),
		}},
		Model:  "ME",
		Placer: service.PlacerSpec{MaxIters: iters, Seed: int64(1 + d)},
		Flow:   service.FlowSpec{GPOnly: true},
	}
}

// oneJob submits one spec under its idempotency key — absorbing 429
// backpressure for the advertised Retry-After and retrying transient
// failures (injected or real) with jittered backoff — then waits for it to
// finish, tolerating transient poll failures the same way.
func oneJob(ctx context.Context, c *client.Client, spec service.JobSpec, idemKey string) jobResult {
	var res jobResult
	start := time.Now()
	v, rejected, retries, err := c.SubmitRetry(ctx, spec, idemKey)
	res.rejected, res.retries = rejected, retries
	if err != nil {
		res.err = err
		return res
	}
	final, err := c.WaitTerminal(ctx, v.ID)
	if err != nil {
		res.err = err
		return res
	}
	res.latency = time.Since(start)
	res.state = final.State
	res.fleetID = final.ID
	if final.Job != nil {
		res.cache = final.Job.Cache
	}
	return res
}

// buildReport folds results into the percentile summary. With ratio > 0 it
// also splits done-job latencies by cache outcome into the eco section:
// exact hits, warm starts (near hits), and cold runs (misses plus jobs on
// workers without a cache, which report no outcome).
func buildReport(results []jobResult, wall time.Duration, counters fleet.Counters, ratio float64) loadReport {
	rep := loadReport{Fleet: counters, WallSecs: wall.Seconds()}
	eco := &ecoReport{ResubmitRatio: ratio}
	resubServed := 0
	var lats, hitLats, warmLats, coldLats []float64
	for _, r := range results {
		rep.Rejected += r.rejected
		if r.resubmit {
			eco.Resubmitted++
		}
		switch {
		case r.err != nil:
			rep.Errors++
		case r.state == string(service.StateDone):
			rep.Done++
			ms := float64(r.latency.Milliseconds())
			lats = append(lats, ms)
			switch r.cache {
			case "hit":
				eco.Hits++
				hitLats = append(hitLats, ms)
			case "near_hit":
				eco.NearHits++
				warmLats = append(warmLats, ms)
			default:
				if r.cache == "miss" {
					eco.Misses++
				}
				coldLats = append(coldLats, ms)
			}
			if r.resubmit && (r.cache == "hit" || r.cache == "near_hit") {
				resubServed++
			}
		default:
			rep.Failed++
		}
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		rep.P50Ms = percentile(lats, 50)
		rep.P95Ms = percentile(lats, 95)
		rep.P99Ms = percentile(lats, 99)
		rep.MaxMs = lats[len(lats)-1]
		sum := 0.0
		for _, v := range lats {
			sum += v
		}
		rep.MeanMs = sum / float64(len(lats))
	}
	if wall > 0 {
		rep.Throughpt = float64(rep.Done) / wall.Seconds()
	}
	if ratio > 0 {
		if eco.Resubmitted > 0 {
			eco.HitRate = float64(resubServed) / float64(eco.Resubmitted)
		}
		sort.Float64s(hitLats)
		sort.Float64s(warmLats)
		sort.Float64s(coldLats)
		eco.HitP50Ms, eco.HitP95Ms = percentile(hitLats, 50), percentile(hitLats, 95)
		eco.WarmP50Ms, eco.WarmP95Ms = percentile(warmLats, 50), percentile(warmLats, 95)
		eco.ColdP50Ms, eco.ColdP95Ms = percentile(coldLats, 50), percentile(coldLats, 95)
		if eco.ColdP50Ms > 0 {
			eco.WarmVsColdP50 = eco.WarmP50Ms / eco.ColdP50Ms
		}
		rep.Eco = eco
	}
	return rep
}

// percentile reads the p-th percentile from sorted values (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// mergeReport writes rep under the "fleet_load" key of the bench JSON,
// preserving whatever other keys (benchjson output) the file already holds.
func mergeReport(path string, rep loadReport) error {
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil {
		// Tolerate a non-object file (e.g. truncated) by starting fresh.
		_ = json.Unmarshal(data, &doc)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	doc["fleet_load"] = blob
	outData, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(outData, '\n'), 0o644)
}
