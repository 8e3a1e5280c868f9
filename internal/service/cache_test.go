package service

import (
	"context"
	"math"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ecocache"
)

// cacheSpec is a small deterministic GP-only job used by the cache tests.
func cacheSpec(cells int) JobSpec {
	return JobSpec{
		Design: DesignSpec{Synth: &SynthSpec{Cells: cells, Seed: 3}},
		Model:  "ME",
		Placer: PlacerSpec{
			MaxIters:     300,
			StopOverflow: 0.15,
			GridX:        32,
			GridY:        32,
			Workers:      2,
		},
		Flow: FlowSpec{GPOnly: true},
	}
}

// newDurableManager opens a store-backed manager (which also opens the
// placement-result cache under <dir>/ecocache).
func newDurableManager(t *testing.T, dir string, workers int) *Manager {
	t.Helper()
	m, err := OpenManager(Config{DataDir: dir, Workers: workers, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx) //nolint:errcheck // double shutdown in cleanup is fine
	})
	return m
}

// TestCacheExactHitBitIdentical pins the exact-hit contract: resubmitting a
// spec is served from the cache without running the GP loop, and the served
// positions are bit-identical to what actually running the flow produces.
// The worker count is not part of the key: the entry a Workers 1 job wrote
// answers a Workers 2 resubmission, whose own flow computes the same bits.
func TestCacheExactHitBitIdentical(t *testing.T) {
	dir := t.TempDir()
	m := newDurableManager(t, dir, 1)
	spec := cacheSpec(120)
	serial := spec
	serial.Placer.Workers = 1

	v1, err := m.Submit(serial)
	if err != nil {
		t.Fatal(err)
	}
	done1 := waitState(t, m, v1.ID, StateDone)
	if done1.Cache != "miss" {
		t.Errorf("first run cache outcome %q, want miss", done1.Cache)
	}

	// Ground truth: replay the Workers 2 spec through the flow directly. The
	// pipeline is deterministic, so these are the bits the cache must serve.
	d, err := spec.buildDesign("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunFlow(d, spec.flowConfig()); err != nil {
		t.Fatal(err)
	}

	v2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done2 := waitState(t, m, v2.ID, StateDone)
	if done2.Cache != "hit" {
		t.Fatalf("resubmission cache outcome %q, want hit", done2.Cache)
	}
	if done2.Result == nil || done2.Result.GPIters != 0 {
		t.Errorf("exact hit ran the GP loop: %+v", done2.Result)
	}
	if done2.Result.DPWL != done1.Result.DPWL {
		t.Errorf("hit HPWL %v differs from original %v", done2.Result.DPWL, done1.Result.DPWL)
	}

	key := ecocache.Key{Design: d.ContentHash(), Config: spec.cacheFingerprint().Key()}
	cached := m.cache.Get(key)
	if cached == nil {
		t.Fatal("finished job not found in the cache")
	}
	for i := range d.X {
		if cached.X[i] != d.X[i] || cached.Y[i] != d.Y[i] {
			t.Fatalf("cached position %d not bit-identical to a fresh run", i)
		}
	}

	st := m.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheEntries != 1 || st.CacheBytes <= 0 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

// TestCacheHitReportsCapped: an exact hit reports the capped flag of the
// run that filled the entry. A job held at a 5-iteration cap with an
// unreachable overflow target reads Capped on its miss and on its
// resubmission's hit; a job that reaches its target reads it on neither.
func TestCacheHitReportsCapped(t *testing.T) {
	m := newDurableManager(t, t.TempDir(), 1)
	capped := cacheSpec(120)
	capped.Placer.MaxIters = 5
	capped.Placer.StopOverflow = 1e-9
	converged := cacheSpec(120)
	converged.Placer.StopOverflow = 0.5
	for _, tc := range []struct {
		name string
		spec JobSpec
		want bool
	}{{"capped", capped, true}, {"converged", converged, false}} {
		for _, outcome := range []string{"miss", "hit"} {
			v, err := m.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			done := waitState(t, m, v.ID, StateDone)
			if done.Cache != outcome {
				t.Fatalf("%s: cache outcome %q, want %s", tc.name, done.Cache, outcome)
			}
			if done.Result == nil || done.Result.Capped != tc.want {
				t.Errorf("%s %s: result %+v, want Capped %v", tc.name, outcome, done.Result, tc.want)
			}
		}
	}
}

// TestCacheHitSurvivesRestart reopens the manager on the same data dir and
// expects the resubmission to hit the recovered cache.
func TestCacheHitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := cacheSpec(100)

	m1, err := OpenManager(Config{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, v1.ID, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	m2 := newDurableManager(t, dir, 1)
	if st := m2.Stats(); st.CacheEntries != 1 {
		t.Fatalf("reopened cache has %d entries, want 1", st.CacheEntries)
	}
	v2, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m2, v2.ID, StateDone)
	if done.Cache != "hit" {
		t.Fatalf("post-restart resubmission cache outcome %q, want hit", done.Cache)
	}
}

// TestCacheNearHitWarmStartsFromParent submits an ECO child (parent spec plus
// a small perturbation and the parent reference) and expects the near-hit
// path: warm start off the parent's cached placement, fewer GP iterations
// than the parent's cold run.
func TestCacheNearHitWarmStartsFromParent(t *testing.T) {
	dir := t.TempDir()
	m := newDurableManager(t, dir, 1)
	parentSpec := cacheSpec(300)

	v1, err := m.Submit(parentSpec)
	if err != nil {
		t.Fatal(err)
	}
	parent := waitState(t, m, v1.ID, StateDone)

	childSpec := parentSpec
	childSpec.Parent = v1.ID
	childSpec.Design.Perturb = &PerturbSpec{Seed: 9, CellFrac: 0.01}
	v2, err := m.Submit(childSpec)
	if err != nil {
		t.Fatal(err)
	}
	child := waitState(t, m, v2.ID, StateDone)
	if child.Cache != "near_hit" {
		t.Fatalf("child cache outcome %q, want near_hit", child.Cache)
	}
	if child.Result == nil || child.Result.GPIters >= parent.Result.GPIters {
		t.Errorf("warm start took %d GP iterations, parent cold run took %d",
			child.Result.GPIters, parent.Result.GPIters)
	}
	if st := m.Stats(); st.CacheNearHits != 1 {
		t.Errorf("stats = %+v, want 1 near hit", st)
	}

	// A child referencing an unknown parent must degrade to a cold start.
	orphan := childSpec
	orphan.Parent = "job-999999"
	orphan.Design.Perturb = &PerturbSpec{Seed: 10, CellFrac: 0.01}
	v3, err := m.Submit(orphan)
	if err != nil {
		t.Fatal(err)
	}
	if done := waitState(t, m, v3.ID, StateDone); done.Cache != "miss" {
		t.Errorf("orphan child cache outcome %q, want miss", done.Cache)
	}
}

// TestCacheNearHitParentRebuildMatchesReuse runs one ECO child in two
// managers. In the first the parent's design spec is the child's without the
// perturbation, so the manager takes the parent design from the child's own
// base. In the second the parent spells out Pads: 8, the default the child
// leaves at 0: the same design from a different spec, which the manager
// rebuilds. Both paths must warm-start the child identically.
func TestCacheNearHitParentRebuildMatchesReuse(t *testing.T) {
	child := func(explicitPads bool) JobView {
		m := newDurableManager(t, t.TempDir(), 1)
		parentSpec := cacheSpec(300)
		childSpec := cacheSpec(300)
		if explicitPads {
			parentSpec.Design.Synth.Pads = 8
		}
		v1, err := m.Submit(parentSpec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, v1.ID, StateDone)
		childSpec.Parent = v1.ID
		childSpec.Design.Perturb = &PerturbSpec{Seed: 9, CellFrac: 0.01}
		v2, err := m.Submit(childSpec)
		if err != nil {
			t.Fatal(err)
		}
		done := waitState(t, m, v2.ID, StateDone)
		if done.Cache != "near_hit" {
			t.Fatalf("explicit pads %v: child cache outcome %q, want near_hit", explicitPads, done.Cache)
		}
		return done
	}
	reused, rebuilt := child(false), child(true)
	if math.Float64bits(reused.Result.DPWL) != math.Float64bits(rebuilt.Result.DPWL) || reused.Result.GPIters != rebuilt.Result.GPIters {
		t.Errorf("reused parent: HPWL %v in %d GP iterations; rebuilt parent: HPWL %v in %d",
			reused.Result.DPWL, reused.Result.GPIters, rebuilt.Result.DPWL, rebuilt.Result.GPIters)
	}
}

// TestCacheNearHitSurvivesRetentionPrune pins the spec-archive contract: a
// parent's cached placement outlives its job record, so an ECO child must
// still warm-start after retention pruning deleted the parent's job
// directory (the spec moves into the archive instead of vanishing).
func TestCacheNearHitSurvivesRetentionPrune(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManager(Config{DataDir: dir, Workers: 1, QueueDepth: 8, Retention: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx) //nolint:errcheck
	})
	parentSpec := cacheSpec(300)
	v1, err := m.Submit(parentSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v1.ID, StateDone)

	// Age the parent out of retention with filler jobs of a different design.
	for i := 0; i < 3; i++ {
		filler := cacheSpec(80)
		filler.Design.Synth.Seed = int64(100 + i)
		fv, err := m.Submit(filler)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, fv.ID, StateDone)
	}
	if _, err := m.store.LoadSpec(v1.ID); err == nil {
		t.Fatal("parent job directory survived retention pruning; test premise broken")
	}
	if _, err := m.store.LoadArchivedSpec(v1.ID); err != nil {
		t.Fatalf("pruned parent spec not archived: %v", err)
	}

	child := parentSpec
	child.Parent = v1.ID
	child.Design.Perturb = &PerturbSpec{Seed: 9, CellFrac: 0.01}
	v2, err := m.Submit(child)
	if err != nil {
		t.Fatal(err)
	}
	if done := waitState(t, m, v2.ID, StateDone); done.Cache != "near_hit" {
		t.Fatalf("child of pruned parent cache outcome %q, want near_hit", done.Cache)
	}
}

// TestSpecArchiveBoundedByCache pruned jobs' specs are archived only as
// long as their placements can still be cached: the archive never holds
// more specs than the cache holds entries.
func TestSpecArchiveBoundedByCache(t *testing.T) {
	const bound = 2
	dir := t.TempDir()
	m, err := OpenManager(Config{DataDir: dir, Workers: 1, Retention: 1, CacheEntries: bound})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx) //nolint:errcheck
	})
	// A prune archives and then trims under m.mu: count between prunes.
	archived := func() int {
		m.mu.Lock()
		defer m.mu.Unlock()
		names, _ := filepath.Glob(filepath.Join(dir, "specarchive", "*.json"))
		return len(names)
	}
	for i := 0; i < 6; i++ {
		spec := synthSpec(5)
		spec.Design.Synth.Seed = int64(10 + i)
		v, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, v.ID, StateDone)
		if n := archived(); n > bound {
			t.Fatalf("after job %d the spec archive holds %d specs, more than the cache's %d entries", i+1, n, bound)
		}
	}
	if n := archived(); n != bound {
		t.Errorf("spec archive holds %d specs after 6 jobs at retention 1, want %d", n, bound)
	}
}

// TestDonePublishedLast pins the publication order of a finished job: at the
// first moment it reads done, its result is already in the cache and the
// done counter already counts it, both for a placed job and for an exact
// hit. A client that resubmits on seeing done must get the cached result.
func TestDonePublishedLast(t *testing.T) {
	m := newDurableManager(t, t.TempDir(), 1)
	spec := cacheSpec(100)
	d, err := spec.buildDesign("")
	if err != nil {
		t.Fatal(err)
	}
	key := ecocache.Key{Design: d.ContentHash(), Config: spec.cacheFingerprint().Key()}
	for i, outcome := range []string{"miss", "hit"} {
		v, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Poll without sleeping, so the first read of done lands as close
		// to its publication as the scheduler allows.
		deadline := time.Now().Add(30 * time.Second)
		for v.State != StateDone {
			if v.State.Terminal() || time.Now().After(deadline) {
				t.Fatalf("job %s: state %s (err %q), want done", v.ID, v.State, v.Error)
			}
			runtime.Gosched()
			if v, err = m.Get(v.ID); err != nil {
				t.Fatal(err)
			}
		}
		done, hits := m.tel.JobsDone.Value(), m.tel.CacheHits.Value()
		if m.cache.Get(key) == nil {
			t.Errorf("%s: job read done before its result was cached", outcome)
		}
		if done != int64(i+1) {
			t.Errorf("%s: done counter %d when the job read done, want %d", outcome, done, i+1)
		}
		if v.Cache != outcome || hits != int64(i) {
			t.Errorf("%s: cache outcome %q with %d hits counted, want %q with %d", outcome, v.Cache, hits, outcome, i)
		}
	}
}
