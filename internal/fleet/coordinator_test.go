package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// fakeClock is a mutable test clock shared by the coordinator and the test.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(10000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testWorker is a real placerd worker (manager + HTTP API) under test.
type testWorker struct {
	id      string
	mgr     *service.Manager
	srv     *httptest.Server
	dataDir string
}

func (w *testWorker) heartbeat() Heartbeat {
	return Heartbeat{ID: w.id, URL: w.srv.URL, DataDir: w.dataDir, Stats: w.mgr.Stats()}
}

// startWorker boots a worker. A non-zero cfg.DataDir makes it durable.
func startWorker(t *testing.T, id string, cfg service.Config) *testWorker {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 8
	}
	mgr, err := service.OpenManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(mgr))
	w := &testWorker{id: id, mgr: mgr, srv: srv, dataDir: cfg.DataDir}
	t.Cleanup(func() { w.stop(t) })
	return w
}

// stop tears the worker down gracefully (idempotent).
func (w *testWorker) stop(t *testing.T) {
	t.Helper()
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		w.mgr.Shutdown(ctx) //nolint:errcheck
	}
}

// kill hard-stops the worker: the API vanishes and the manager drain runs
// with an already-expired budget, cancelling jobs mid-flight (which, for a
// durable worker, persists them as interrupted with a final snapshot).
func (w *testWorker) kill(t *testing.T) {
	t.Helper()
	w.srv.Close()
	w.srv = nil
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	if err := w.mgr.Shutdown(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("kill %s: Shutdown = %v, want DeadlineExceeded", w.id, err)
	}
}

// fastSpec finishes quickly; workers pinned to 1 for determinism.
func fastSpec(seed int64) service.JobSpec {
	return service.JobSpec{
		Design: service.DesignSpec{Synth: &service.SynthSpec{Cells: 64, Seed: seed}},
		Model:  "WA",
		Placer: service.PlacerSpec{MaxIters: 25, StopOverflow: 1e-9, GridX: 16, GridY: 16, Workers: 1},
		Flow:   service.FlowSpec{GPOnly: true},
	}
}

// slowSpec never finishes on its own within a test run.
func slowSpec(seed int64) service.JobSpec {
	s := fastSpec(seed)
	s.Placer.MaxIters = 1 << 20
	return s
}

// durableFleetSpec runs long enough to checkpoint before being interrupted.
func durableFleetSpec(iters int) service.JobSpec {
	s := fastSpec(1)
	s.Placer.MaxIters = iters
	return s
}

// newTestCoordinator builds a coordinator on a fake clock with fast tests
// defaults.
func newTestCoordinator(t *testing.T, clock *fakeClock, adm *Admission) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(Config{
		HeartbeatTTL: time.Second,
		Admission:    adm,
		Now:          clock.Now,
		// Dead-worker dispatch attempts should fail fast in tests, not
		// sleep through retry backoff.
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// waitFleetState polls the coordinator until the job reaches want.
func waitFleetState(t *testing.T, c *Coordinator, clock *fakeClock, id, want string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, err := c.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if v.State == want {
			return v
		}
		if service.State(v.State).Terminal() {
			t.Fatalf("job %s reached %s, want %s (view %+v)", id, v.State, want, v)
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobView{}
}

func TestCoordinatorRoutesAffinityAndCompletes(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, nil)
	wA := startWorker(t, "wA", service.Config{})
	wB := startWorker(t, "wB", service.Config{})
	for _, w := range []*testWorker{wA, wB} {
		if err := c.RecordHeartbeat(w.heartbeat(), clock.Now()); err != nil {
			t.Fatal(err)
		}
	}

	v1, after, err := c.Submit(fastSpec(7), "t1")
	if err != nil {
		t.Fatalf("Submit: %v (after %s)", err, after)
	}
	if v1.Worker == "" {
		t.Fatalf("job not assigned with two live workers: %+v", v1)
	}
	done1 := waitFleetState(t, c, clock, v1.ID, "done")
	if done1.Job == nil || done1.Job.Result == nil {
		t.Fatalf("done view has no proxied result: %+v", done1)
	}

	// Resubmitting the byte-identical spec must hit checkpoint affinity:
	// same worker, flagged, counted.
	v2, _, err := c.Submit(fastSpec(7), "t1")
	if err != nil {
		t.Fatal(err)
	}
	if v2.Worker != v1.Worker || !v2.AffinityHit {
		t.Errorf("resubmission routed to %s (affinity %v), want affine worker %s",
			v2.Worker, v2.AffinityHit, v1.Worker)
	}
	if got := c.Telemetry().AffinityHits.Value(); got != 1 {
		t.Errorf("AffinityHits = %d, want 1", got)
	}
	waitFleetState(t, c, clock, v2.ID, "done")

	// A different spec is free to land anywhere, but must complete too.
	v3, _, err := c.Submit(fastSpec(99), "t2")
	if err != nil {
		t.Fatal(err)
	}
	waitFleetState(t, c, clock, v3.ID, "done")

	if got := c.Telemetry().JobsAssigned.Value(); got != 3 {
		t.Errorf("JobsAssigned = %d, want 3", got)
	}
}

// TestCoordinatorRecoversFromWorkerDeath is the fleet acceptance test: kill
// a worker mid-job; after heartbeat expiry the coordinator re-routes the
// job to a surviving node, which resumes from the dead node's checkpoints
// (shared filesystem) and finishes with the HPWL of an uninterrupted run.
func TestCoordinatorRecoversFromWorkerDeath(t *testing.T) {
	const iters = 300
	root := t.TempDir()

	// Reference: the same spec run to completion on an isolated manager.
	ref := service.NewManager(service.Config{Workers: 1, QueueDepth: 4})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ref.Shutdown(ctx) //nolint:errcheck
	}()
	rv, err := ref.Submit(durableFleetSpec(iters))
	if err != nil {
		t.Fatal(err)
	}
	var refDone service.JobView
	for {
		refDone, err = ref.Get(rv.ID)
		if err != nil {
			t.Fatal(err)
		}
		if refDone.State.Terminal() {
			break
		}
		time.Sleep(3 * time.Millisecond)
	}
	if refDone.State != service.StateDone || refDone.Result == nil {
		t.Fatalf("reference run ended %s", refDone.State)
	}

	// A 3-worker fleet on one shared filesystem root: each node has its own
	// durable store but may resume from any directory under the root.
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, nil)
	workers := map[string]*testWorker{}
	for _, id := range []string{"wA", "wB", "wC"} {
		w := startWorker(t, id, service.Config{
			DataDir: root + "/" + id, CheckpointEvery: 5, ResumeRoot: root,
		})
		workers[id] = w
		if err := c.RecordHeartbeat(w.heartbeat(), clock.Now()); err != nil {
			t.Fatal(err)
		}
	}

	v, _, err := c.Submit(durableFleetSpec(iters), "t1")
	if err != nil {
		t.Fatal(err)
	}
	victim := workers[v.Worker]
	if victim == nil {
		t.Fatalf("job assigned to unknown worker %q", v.Worker)
	}

	// Let it run past a checkpoint boundary, then kill whichever node
	// rendezvous picked.
	deadline := time.Now().Add(30 * time.Second)
	for {
		jv, err := victim.mgr.Get(v.RemoteID)
		if err != nil {
			t.Fatal(err)
		}
		if jv.Progress != nil && jv.Progress.Iteration >= 20 {
			break
		}
		if jv.State.Terminal() {
			t.Fatalf("job finished before it could be killed: %+v", jv)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached iteration 20")
		}
		time.Sleep(2 * time.Millisecond)
	}
	victim.kill(t)

	// The victim's heartbeats stop while the survivors keep reporting. Past
	// the TTL the coordinator expires it and re-routes the job with a resume
	// pointer into the dead node's durable store.
	clock.Advance(1500 * time.Millisecond)
	for id, w := range workers {
		if id != victim.id {
			if err := c.RecordHeartbeat(w.heartbeat(), clock.Now()); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Tick(clock.Now())

	moved, err := c.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Worker == "" || moved.Worker == victim.id || moved.Reroutes != 1 {
		t.Fatalf("after expiry job is on %q (reroutes %d), want a survivor with 1 reroute", moved.Worker, moved.Reroutes)
	}
	if got := c.Telemetry().JobsRerouted.Value(); got != 1 {
		t.Errorf("JobsRerouted = %d, want 1", got)
	}

	done := waitFleetState(t, c, clock, v.ID, "done")
	if done.Job == nil || done.Job.Result == nil {
		t.Fatal("re-routed job has no result")
	}
	// The victim checkpointed every 5 iterations and died past iteration 20.
	if done.Job.Result.ResumedFrom < 20 {
		t.Errorf("re-routed job resumed from iteration %d, want a dead-node snapshot at 20 or later", done.Job.Result.ResumedFrom)
	}
	if done.Job.Result.GPIters != iters {
		t.Errorf("re-routed job ran %d GP iterations, want %d", done.Job.Result.GPIters, iters)
	}
	if done.Job.Result.DPWL != refDone.Result.DPWL {
		t.Errorf("re-routed HPWL = %v, want bit-identical %v (diff %g)",
			done.Job.Result.DPWL, refDone.Result.DPWL, done.Job.Result.DPWL-refDone.Result.DPWL)
	}
}

func TestCoordinatorStealsQueuedWork(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, nil)
	wA := startWorker(t, "wA", service.Config{})
	if err := c.RecordHeartbeat(wA.heartbeat(), clock.Now()); err != nil {
		t.Fatal(err)
	}

	// Fill wA: one running (forever) plus one queued behind it.
	running, _, err := c.Submit(slowSpec(1), "t1")
	if err != nil {
		t.Fatal(err)
	}
	waitFleetState(t, c, clock, running.ID, "running")
	queued, _, err := c.Submit(fastSpec(2), "t1")
	if err != nil {
		t.Fatal(err)
	}
	if queued.State != string(service.StateQueued) {
		t.Fatalf("second job state = %s, want queued behind the slow one", queued.State)
	}

	// An idle worker joins; heartbeats carry the fresh load reports and the
	// next tick steals the queued job over (never the running one).
	wB := startWorker(t, "wB", service.Config{})
	if err := c.RecordHeartbeat(wA.heartbeat(), clock.Now()); err != nil {
		t.Fatal(err)
	}
	if err := c.RecordHeartbeat(wB.heartbeat(), clock.Now()); err != nil {
		t.Fatal(err)
	}
	c.Tick(clock.Now())

	moved, err := c.Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Worker != "wB" || moved.Steals != 1 {
		t.Fatalf("queued job on %q (steals %d), want stolen onto wB", moved.Worker, moved.Steals)
	}
	if got := c.Telemetry().JobsStolen.Value(); got != 1 {
		t.Errorf("JobsStolen = %d, want 1", got)
	}
	waitFleetState(t, c, clock, moved.ID, "done")

	still, err := c.Get(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if still.Worker != "wA" || still.State != string(service.StateRunning) {
		t.Errorf("running job disturbed by steal: %+v", still)
	}
	if _, err := c.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorHTTPBackpressureRetryAfter(t *testing.T) {
	clock := newFakeClock()
	adm, err := NewAdmission(TenantConfig{}, []TenantConfig{
		{Name: "ci", MaxInFlight: 1},
	}, clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCoordinator(t, clock, adm)
	w := startWorker(t, "w1", service.Config{})
	if err := c.RecordHeartbeat(w.heartbeat(), clock.Now()); err != nil {
		t.Fatal(err)
	}
	api := httptest.NewServer(NewHandler(c))
	defer api.Close()

	post := func(tenant string, spec service.JobSpec) *http.Response {
		t.Helper()
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, api.URL+"/v1/jobs", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	r1 := post("ci", slowSpec(1))
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", r1.StatusCode)
	}
	var v1 JobView
	if err := json.NewDecoder(r1.Body).Decode(&v1); err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()

	// Quota is 1 in-flight: the second submit must get a 429 with an
	// integer-seconds Retry-After any client can parse.
	r2 := post("ci", fastSpec(2))
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit status = %d, want 429", r2.StatusCode)
	}
	ra := r2.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", ra)
	}
	r2.Body.Close()

	// Another tenant is not affected by ci's quota.
	r3 := post("other", fastSpec(3))
	if r3.StatusCode != http.StatusAccepted {
		t.Fatalf("other-tenant submit status = %d, want 202", r3.StatusCode)
	}
	r3.Body.Close()

	// Cancelling the hog frees the quota slot.
	req, _ := http.NewRequest(http.MethodDelete, api.URL+"/v1/jobs/"+v1.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := c.Get(v1.ID)
		if err != nil {
			t.Fatal(err)
		}
		if service.State(v.State).Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never reached a terminal state")
		}
		time.Sleep(3 * time.Millisecond)
	}
	r4 := post("ci", fastSpec(4))
	if r4.StatusCode != http.StatusAccepted {
		t.Fatalf("post-release submit status = %d, want 202", r4.StatusCode)
	}
	r4.Body.Close()
}

func TestCoordinatorHealthAndReadiness(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, nil)
	api := httptest.NewServer(NewHandler(c))
	defer api.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(api.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz with no workers = %d, want 503", got)
	}
	w := startWorker(t, "w1", service.Config{})
	if err := c.RecordHeartbeat(w.heartbeat(), clock.Now()); err != nil {
		t.Fatal(err)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz with a live worker = %d, want 200", got)
	}

	// Worker silence past the TTL flips readiness back off.
	clock.Advance(2 * time.Second)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz after heartbeat expiry = %d, want 503", got)
	}

	resp, err := http.Get(api.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "placercoord_heartbeats_total") {
		t.Error("/metrics missing placercoord_heartbeats_total")
	}
}

func TestCoordinatorTrajectoryProxy(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, nil)
	w := startWorker(t, "w1", service.Config{})
	if err := c.RecordHeartbeat(w.heartbeat(), clock.Now()); err != nil {
		t.Fatal(err)
	}
	api := httptest.NewServer(NewHandler(c))
	defer api.Close()

	spec := fastSpec(5)
	spec.Placer.RecordEvery = 1
	v, _, err := c.Submit(spec, "t1")
	if err != nil {
		t.Fatal(err)
	}
	waitFleetState(t, c, clock, v.ID, "done")

	resp, err := http.Get(api.URL + "/v1/jobs/" + v.ID + "/trajectory?follow=false")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trajectory proxy status = %d, want 200", resp.StatusCode)
	}
	buf := make([]byte, 1<<20)
	total := 0
	for {
		n, err := resp.Body.Read(buf[total:])
		total += n
		if err != nil {
			break
		}
	}
	lines := strings.Split(strings.TrimSpace(string(buf[:total])), "\n")
	if len(lines) < 2 || !strings.Contains(lines[0], "\"hpwl\"") {
		t.Fatalf("proxied trajectory = %d lines (first %q), want NDJSON points", len(lines), lines[0])
	}
}
