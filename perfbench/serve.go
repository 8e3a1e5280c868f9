package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/ecocache"
	"repro/internal/netlist"
	"repro/internal/service"
	"repro/internal/synth"
	rsynth "repro/perfbench/refgp/synth"
)

// serve_eco shape. One client sends, per design, one fresh job, then
// ecoResubmits jobs that are half exact resubmissions and half ECO children,
// each after the previous one finished.
const (
	ecoCells      = 1000
	ecoResubmits  = 10
	ecoCellFrac   = 0.01
	pollInterval  = time.Millisecond
	setupOpens    = 40 // OpenManager calls per set-up sample batch
	shutdownGrace = 60 * time.Second
)

// workDir holds the service's data directories while a run lasts. It is
// relative to the directory the benchmark runs in.
const workDir = ".bench_build"

// reqKind classes a job by what the client asked for, not by what the cache
// did with it: an exact resubmission that misses the cache is still "exact".
type reqKind int

const (
	kindFresh reqKind = iota
	kindExact
	kindChild
)

func (k reqKind) String() string { return [...]string{"fresh", "exact", "child"}[k] }

// ecoRequest is one job of the plan. A child's Parent is filled in when it
// is sent, from the ID the fresh job of its design got.
type ecoRequest struct {
	kind reqKind
	spec service.JobSpec
}

// designRequests is the request sequence for the idx-th design of a run:
// one fresh job, then a seeded shuffle of exact resubmissions and ECO
// children. The same seed and idx always give the same sequence.
func designRequests(seed int64, idx int) []ecoRequest {
	i := uint64(idx)
	base := service.JobSpec{
		Design: service.DesignSpec{Synth: &service.SynthSpec{
			Name:  fmt.Sprintf("eco-%03d", idx),
			Cells: ecoCells, Pads: 8, Nets: ecoCells + ecoCells/10,
			AvgDegree: 3.9, Utilization: 0.7, TargetDensity: 1,
			Seed: subSeed(seed, streamEcoDesign, i),
		}},
		Model:  "ME",
		Placer: service.PlacerSpec{Workers: 1, Seed: subSeed(seed, streamEcoPlacer, i)},
		Flow:   service.FlowSpec{GPOnly: true},
	}
	kinds := make([]reqKind, ecoResubmits)
	for k := range kinds {
		kinds[k] = kindExact + reqKind(k%2)
	}
	rng := rand.New(rand.NewSource(subSeed(seed, streamEcoOrder, i)))
	rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	reqs := []ecoRequest{{kindFresh, base}}
	for k, kind := range kinds {
		spec := base
		if kind == kindChild {
			spec.Design.Perturb = &service.PerturbSpec{Seed: subSeed(seed, streamEcoPerturb, i, uint64(k)), CellFrac: ecoCellFrac}
		}
		reqs = append(reqs, ecoRequest{kind, spec})
	}
	return reqs
}

// buildDesign builds the design a request names, as the service does. Every
// SynthSpec field the plan sends is set, so no service default applies.
func buildDesign(ds service.DesignSpec) (*netlist.Design, error) {
	s := ds.Synth
	d, err := synth.Generate(synth.Spec{
		Name: s.Name, NumMovable: s.Cells, NumMacros: s.Macros, NumPads: s.Pads,
		NumFixedBlocks: s.FixedBlocks, NumNets: s.Nets, AvgDegree: s.AvgDegree,
		Utilization: s.Utilization, TargetDensity: s.TargetDensity, Seed: s.Seed,
	})
	if err != nil || ds.Perturb == nil {
		return d, err
	}
	return netlist.Perturb(d, netlist.Perturbation{Seed: ds.Perturb.Seed, CellFrac: ds.Perturb.CellFrac, NetFrac: ds.Perturb.NetFrac})
}

// jobRecord is one finished request as the client saw it.
type jobRecord struct {
	kind    reqKind
	design  int
	err     error
	submit  float64 // seconds inside Manager.Submit
	latency float64 // seconds from the Submit call to JobView.FinishedAt
	view    service.JobView
	// fresh is the view of the design's fresh job (for exact and child).
	fresh service.JobView
}

func (r jobRecord) hpwl() float64 {
	if r.view.Result == nil {
		return 0
	}
	return r.view.Result.DPWL
}

// submitAndWait sends one job and polls it until it ends.
func submitAndWait(m *service.Manager, spec service.JobSpec) jobRecord {
	t0 := time.Now()
	v, err := m.Submit(spec)
	rec := jobRecord{submit: time.Since(t0).Seconds(), view: v, err: err}
	for err == nil && !v.State.Terminal() {
		time.Sleep(pollInterval)
		v, err = m.Get(v.ID)
	}
	rec.view, rec.err = v, err
	if err == nil && v.FinishedAt != nil {
		rec.latency = v.FinishedAt.Sub(t0).Seconds()
	}
	return rec
}

// runLoad drives the closed loop: one client sends one design's requests
// after another until dur has passed, and calls between after every design.
// It returns the jobs and the load time, without the time between designs.
func runLoad(m *service.Manager, seed int64, dur time.Duration, between func() error) ([]jobRecord, float64, error) {
	var recs []jobRecord
	load := 0.0
	start := time.Now()
	for idx := 0; idx == 0 || time.Since(start) < dur; idx++ {
		t := time.Now()
		var fresh service.JobView
		for _, rq := range designRequests(seed, idx) {
			spec := rq.spec
			if rq.kind == kindChild {
				spec.Parent = fresh.ID
			}
			rec := submitAndWait(m, spec)
			rec.kind, rec.design, rec.fresh = rq.kind, idx, fresh
			recs = append(recs, rec)
			if rq.kind == kindFresh {
				if rec.err != nil || rec.view.State != service.StateDone {
					break // nothing to resubmit
				}
				fresh = rec.view
			}
		}
		load += time.Since(t).Seconds()
		if err := between(); err != nil {
			return nil, 0, err
		}
	}
	return recs, load, nil
}

// checkJobs applies the correctness checks: every job is done, and every
// exact resubmission reports its original's HPWL bit for bit.
func checkJobs(rep *report, recs []jobRecord) {
	for _, r := range recs {
		rep.attempted++
		switch {
		case r.err != nil:
			rep.fail("%s job for design %d: %v", r.kind, r.design, r.err)
		case r.view.State != service.StateDone:
			rep.fail("%s job %s for design %d ended %s: %s", r.kind, r.view.ID, r.design, r.view.State, r.view.Error)
		case r.kind == kindExact && math.Float64bits(r.hpwl()) != math.Float64bits(r.fresh.Result.DPWL):
			rep.fail("exact resubmission %s reports HPWL %v, its original %s reported %v", r.view.ID, r.hpwl(), r.fresh.ID, r.fresh.Result.DPWL)
		}
	}
}

// byKind returns the done jobs of one kind.
func byKind(recs []jobRecord, kind reqKind) []jobRecord {
	var out []jobRecord
	for _, r := range recs {
		if r.kind == kind && r.err == nil && r.view.State == service.StateDone {
			out = append(out, r)
		}
	}
	return out
}

func collect(recs []jobRecord, f func(jobRecord) float64) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = f(r)
	}
	return out
}

func latencyMs(r jobRecord) float64 { return 1000 * r.latency }

// openManager opens a manager with placerd's defaults, durable on dir.
func openManager(dir string) (*service.Manager, error) {
	return service.OpenManager(service.Config{
		Workers: 2, QueueDepth: 16, Retention: 64, CheckpointEvery: 25, DataDir: dir,
	})
}

// sampleSetup times setupOpens calls of service.OpenManager on one empty
// data directory, each shut down again. An untimed first call creates the
// directory's layout the first time, so the timed calls measure the
// manager's own work: creating directories just after an earlier run deleted
// its data takes two to four times as long on a journaled filesystem, a cost
// set by what ran before, not by the program.
func sampleSetup(dir string) ([]float64, error) {
	times := make([]float64, 0, setupOpens)
	for i := 0; i <= setupOpens; i++ {
		t := time.Now()
		m, err := openManager(dir)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			times = append(times, time.Since(t).Seconds())
		}
		if err := shutdown(m); err != nil {
			return nil, err
		}
	}
	return times, nil
}

func shutdown(m *service.Manager) error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	return m.Shutdown(ctx)
}

// runServe runs the serve_eco workload: placement as a service with the ECO
// result cache, in durable mode.
func runServe(seed int64, dur time.Duration, trace bool) (*report, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	g, err := newGauge(rsynth.Spec{
		Name: "gauge-eco", NumMovable: ecoCells, NumPads: 8, NumNets: ecoCells + ecoCells/10,
		AvgDegree: 3.9, Utilization: 0.7, TargetDensity: 1, Seed: 1,
	}, "ME", 0.4)
	if err != nil {
		return nil, err
	}
	// One OpenManager call on an empty data directory takes tens of
	// microseconds, and how long moves from one second to the next, so
	// set-up is the median of many calls made in batches: one before the
	// load and one after every design, each beside a gauge run, with no job
	// in the service.
	var opens []float64
	between := func() error {
		if _, err := g.measure(); err != nil {
			return err
		}
		batch, err := sampleSetup(filepath.Join(root, "setup"))
		if err != nil {
			return fmt.Errorf("open manager: %w", err)
		}
		opens = append(opens, batch...)
		return nil
	}
	if err := between(); err != nil {
		return nil, err
	}
	dataDir := filepath.Join(root, "data")
	m, err := openManager(dataDir)
	if err != nil {
		return nil, fmt.Errorf("open manager: %w", err)
	}
	recs, load, err := runLoad(m, seed, dur, between)
	if err != nil {
		_ = shutdown(m) // the error between designs is the one to report
		return nil, err
	}
	stats := m.Stats()
	if err := shutdown(m); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	rep := newReport()
	checkJobs(rep, recs)
	fresh, exact, child := byKind(recs, kindFresh), byKind(recs, kindExact), byKind(recs, kindChild)
	all := append(append(append([]jobRecord(nil), fresh...), exact...), child...)
	describeLoad(rep, recs, fresh, exact, child, stats)
	d, err := buildDesign(designRequests(seed, 0)[0].spec.Design)
	if err != nil {
		return nil, err
	}
	describeDesign(rep, d)
	g.fact(rep)
	if !trace {
		rep.fact("set-up", "unscaled OpenManager p25 %.4g ms, p50 %.4g ms, p75 %.4g ms over %d calls",
			1000*percentile(opens, 25), 1000*median(opens), 1000*percentile(opens, 75), len(opens))
		rep.fact("child latency", "unscaled p50 %.4g ms", 1000*median(collect(child, func(r jobRecord) float64 { return r.latency })))
		// A design's jobs take about a second, too short for the gauge runs
		// around one design to say how fast the host ran it, so every time
		// is scaled by the median over all the run's gauge runs.
		k := g.runScale()
		rep.set("setup_s", k*median(opens))
		// place_s is the ECO child latency, the warm path this workload
		// exists for; the traced run reports the cold one as cold_p50_ms.
		rep.set("place_s", k*median(collect(child, func(r jobRecord) float64 { return r.latency })))
		rep.set("jobs_per_s", float64(len(all))/(k*load))
		rep.set("hpwl", mean(collect(all, jobRecord.hpwl)))
		return rep, nil
	}

	setKindLatencies(rep, fresh, exact, child)
	rep.set("service.submit_ms", median(collect(all, func(r jobRecord) float64 { return 1000 * r.submit })))
	rep.set("service.queue_ms", median(collect(all, func(r jobRecord) float64 { return 1000 * r.view.QueueWait })))
	rep.set("service.unaccounted_ms", median(collect(all, func(r jobRecord) float64 {
		return 1000 * (r.latency - r.submit - r.view.QueueWait - r.view.RunSeconds)
	})))
	for _, k := range []struct {
		name string
		recs []jobRecord
	}{{"cold", fresh}, {"hit", exact}, {"warm", child}} {
		rep.set("service.run_ms."+k.name, median(collect(k.recs, func(r jobRecord) float64 { return 1000 * r.view.RunSeconds })))
		rep.set("service.outside_flow_ms."+k.name, median(collect(k.recs, func(r jobRecord) float64 {
			return 1000 * (r.view.RunSeconds - r.view.Result.TotalSeconds)
		})))
	}
	iters := func(r jobRecord) float64 { return float64(r.view.Result.GPIters) }
	rep.set("placer.cold_iters", median(collect(fresh, iters)))
	rep.set("placer.warm_iters", median(collect(child, iters)))
	hit, near := cacheRatios(exact, child)
	rep.set("ecocache.hit_ratio", hit)
	rep.set("ecocache.near_hit_ratio", near)
	if err := probe(rep, seed, dataDir, filepath.Join(root, "probe"), fresh); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	return rep, nil
}

// setKindLatencies reports latency per request kind and the warm-start
// quality guard.
func setKindLatencies(rep *report, fresh, exact, child []jobRecord) {
	hit, warm := collect(exact, latencyMs), collect(child, latencyMs)
	rep.set("hit_p50_ms", percentile(hit, 50))
	rep.set("hit_p90_ms", percentile(hit, 90))
	rep.set("warm_p50_ms", percentile(warm, 50))
	rep.set("warm_p90_ms", percentile(warm, 90))
	rep.set("cold_p50_ms", percentile(collect(fresh, latencyMs), 50))
	rep.set("warm_hpwl_ratio", mean(collect(child, func(r jobRecord) float64 { return r.hpwl() / r.fresh.Result.DPWL })))
}

// cacheRatios is the share of exact resubmissions that hit the cache and
// the share of children that near-hit it.
func cacheRatios(exact, child []jobRecord) (hit, near float64) {
	return ratio(float64(countCache(exact, "hit")), float64(len(exact))),
		ratio(float64(countCache(child, "near_hit")), float64(len(child)))
}

func countCache(recs []jobRecord, outcome string) int {
	n := 0
	for _, r := range recs {
		if r.view.Cache == outcome {
			n++
		}
	}
	return n
}

// describeLoad records the load's shape: jobs per kind, the cache outcomes
// each kind got, and the latency percentiles with their sample counts.
func describeLoad(rep *report, recs, fresh, exact, child []jobRecord, st service.ManagerStats) {
	designs := map[int]bool{}
	for _, r := range recs {
		designs[r.design] = true
	}
	rep.fact("load", "closed loop, 1 client, %d designs of %d cells, %d jobs sent", len(designs), ecoCells, len(recs))
	for _, k := range []struct {
		kind reqKind
		recs []jobRecord
	}{{kindFresh, fresh}, {kindExact, exact}, {kindChild, child}} {
		outcomes := map[string]int{}
		for _, r := range k.recs {
			outcomes[r.view.Cache]++
		}
		lat := collect(k.recs, latencyMs)
		tailText := "no tail (fewer than 20 samples)"
		if pct, v, ok := tail(lat); ok {
			tailText = fmt.Sprintf("p%g %.4g ms", pct, v)
		}
		rep.fact(k.kind.String()+" jobs", "%d done, cache %s, latency p50 %.4g ms, %s", len(k.recs), formatCounts(outcomes), percentile(lat, 50), tailText)
	}
	hit, near := cacheRatios(exact, child)
	rep.fact("cache ratios", "hit_ratio %.4f (hits / exact), near_hit_ratio %.4f (near hits / children)", hit, near)
	rep.fact("manager stats", "cache hits %d, near hits %d, misses %d, entries %d", st.CacheHits, st.CacheNearHits, st.CacheMisses, st.CacheEntries)
}

func formatCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}

// probe times, once per design of the run, each public function the hit and
// warm paths call, on a scratch copy of the run's cache and one of the
// run's own snapshots.
func probe(rep *report, seed int64, dataDir, scratch string, fresh []jobRecord) error {
	cacheDir := filepath.Join(scratch, "ecocache")
	if err := copyDir(filepath.Join(dataDir, "ecocache"), cacheDir); err != nil {
		return err
	}
	cache, err := ecocache.Open(cacheDir, ecocache.Options{})
	if err != nil {
		return err
	}
	entries, err := cacheEntries(cacheDir)
	if err != nil {
		return err
	}
	snap, err := largestSnapshot(dataDir)
	if err != nil {
		return err
	}
	rep.fact("grid", "%dx%d", snap.Fingerprint.GridX, snap.Fingerprint.GridY)
	var hashMs, diffMs, getMs, putMs, planMs, writeMs, decodeMs, small []float64
	ms := func(t time.Time) float64 { return 1000 * time.Since(t).Seconds() }
	for _, f := range fresh {
		reqs := designRequests(seed, f.design)
		parentD, err := buildDesign(reqs[0].spec.Design)
		if err != nil {
			return err
		}
		small = append(small, smallNetRatio(parentD))
		t := time.Now()
		h := parentD.ContentHash()
		hashMs = append(hashMs, ms(t))
		entry, ok := entries[h]
		if !ok {
			continue // evicted from the cache by later designs
		}
		var childSpec service.JobSpec
		for _, rq := range reqs {
			if rq.kind == kindChild {
				childSpec = rq.spec
				break
			}
		}
		childD, err := buildDesign(childSpec.Design)
		if err != nil {
			return err
		}
		t = time.Now()
		netlist.Diff(parentD, childD)
		diffMs = append(diffMs, ms(t))
		t = time.Now()
		res := cache.Get(entry.key)
		getMs = append(getMs, ms(t))
		if res == nil {
			return fmt.Errorf("scratch cache lost the entry of design %d", f.design)
		}
		t = time.Now()
		ecocache.PlanWarmStart(res, parentD, childD, ecocache.WarmStartOptions{})
		planMs = append(planMs, ms(t))
		t = time.Now()
		if err := cache.Put(entry.key, res); err != nil {
			return err
		}
		putMs = append(putMs, ms(t))
		data, err := os.ReadFile(entry.path)
		if err != nil {
			return err
		}
		t = time.Now()
		if _, err := checkpoint.DecodeResult(data); err != nil {
			return err
		}
		decodeMs = append(decodeMs, ms(t))
		t = time.Now()
		if err := checkpoint.WriteFile(filepath.Join(scratch, "snapshot.ckpt"), snap); err != nil {
			return err
		}
		writeMs = append(writeMs, ms(t))
	}
	if len(getMs) == 0 {
		rep.fail("no design rebuilt by the probe matches a cached placement")
	}
	rep.fact("probe", "%d designs hashed, %d found in the cache", len(hashMs), len(getMs))
	rep.set("netlist.small_net_ratio", mean(small))
	rep.set("netlist.hash_ms", median(hashMs))
	rep.set("netlist.diff_ms", median(diffMs))
	rep.set("ecocache.get_ms", median(getMs))
	rep.set("ecocache.put_ms", median(putMs))
	rep.set("ecocache.plan_ms", median(planMs))
	rep.set("checkpoint.snapshot_write_ms", median(writeMs))
	rep.set("checkpoint.result_decode_ms", median(decodeMs))
	return nil
}

// cacheEntry is one file of the cache directory.
type cacheEntry struct {
	key  ecocache.Key
	path string
}

// cacheEntries indexes the cache directory's entries by design hash. An entry
// is named "<design hash>-<config key>.place".
func cacheEntries(dir string) (map[netlist.Hash]cacheEntry, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	entries := make(map[netlist.Hash]cacheEntry)
	for _, de := range des {
		base, ok := strings.CutSuffix(de.Name(), ".place")
		hashHex, cfgHex, ok2 := strings.Cut(base, "-")
		if !ok || !ok2 {
			continue
		}
		h, err := netlist.ParseHash(hashHex)
		if err != nil {
			continue
		}
		cfg, err := strconv.ParseUint(cfgHex, 16, 64)
		if err != nil {
			continue
		}
		entries[h] = cacheEntry{ecocache.Key{Design: h, Config: cfg}, filepath.Join(dir, de.Name())}
	}
	return entries, nil
}

// largestSnapshot loads the biggest snapshot left in the run's job store:
// one from a full (not partially released) placement.
func largestSnapshot(dataDir string) (*checkpoint.Snapshot, error) {
	paths, err := filepath.Glob(filepath.Join(dataDir, "jobs", "*", "checkpoints", "*.ckpt"))
	if err != nil {
		return nil, err
	}
	best, size := "", int64(-1)
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil && fi.Size() > size {
			best, size = p, fi.Size()
		}
	}
	if best == "" {
		return nil, fmt.Errorf("no snapshot under %s", dataDir)
	}
	return checkpoint.ReadFile(best)
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	des, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, de := range des {
		if !de.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
