package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// newJournalCoordinator builds a journaled coordinator on the shared fake
// clock; both "boots" of a crash test call this with the same path.
func newJournalCoordinator(t *testing.T, clock *fakeClock, path string) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(Config{
		HeartbeatTTL: time.Second,
		JournalPath:  path,
		Now:          clock.Now,
		Sleep:        func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCoordinatorCrashRecoveryZeroLoss is the tentpole acceptance test: a
// journaled coordinator is killed (abandoned, kill -9 style: no Close, no
// drain) together with the worker running a long job. A second coordinator
// booted on the same journal replays everything: the finished job stays in
// history, the orphaned assignment re-routes to a survivor with a resume
// pointer into the dead worker's checkpoints once the recovery grace lapses,
// the rerun finishes with the HPWL of an uninterrupted run (bit-identical),
// and a submit retried across the crash under its idempotency key returns
// the original job instead of a duplicate.
func TestCoordinatorCrashRecoveryZeroLoss(t *testing.T) {
	const iters = 300
	root := t.TempDir()
	journal := filepath.Join(root, "journal")

	// Reference HPWL: the same long spec run to completion, uninterrupted.
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

	// Boot 1: two durable workers on a shared resume root.
	clock := newFakeClock()
	c1 := newJournalCoordinator(t, clock, journal)
	workers := map[string]*testWorker{}
	for _, id := range []string{"wA", "wB"} {
		w := startWorker(t, id, service.Config{
			DataDir: filepath.Join(root, id), CheckpointEvery: 5, ResumeRoot: root,
		})
		workers[id] = w
		if err := c1.RecordHeartbeat(w.heartbeat(), clock.Now()); err != nil {
			t.Fatal(err)
		}
	}

	// A short job completes before the crash (terminal history in the journal),
	// submitted under an idempotency key so the post-crash retry can be tested.
	doneV, _, err := c1.SubmitIdem(fastSpec(50), "t1", "crash-idem-1")
	if err != nil {
		t.Fatal(err)
	}
	waitFleetState(t, c1, clock, doneV.ID, "done")

	// The long job runs past a checkpoint boundary on whichever worker
	// rendezvous picked.
	longV, _, err := c1.Submit(durableFleetSpec(iters), "t1")
	if err != nil {
		t.Fatal(err)
	}
	victim := workers[longV.Worker]
	if victim == nil {
		t.Fatalf("long job assigned to unknown worker %q", longV.Worker)
	}
	var survivor *testWorker
	for id, w := range workers {
		if id != victim.id {
			survivor = w
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		jv, err := victim.mgr.Get(longV.RemoteID)
		if err != nil {
			t.Fatal(err)
		}
		if jv.Progress != nil && jv.Progress.Iteration >= 20 {
			break
		}
		if jv.State.Terminal() {
			t.Fatalf("long job finished before the crash: %+v", jv)
		}
		if time.Now().After(deadline) {
			t.Fatal("long job never reached iteration 20")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// kill -9 both the coordinator (abandoned, journal handle still open —
	// exactly what a dead process leaves behind) and the victim worker.
	victim.kill(t)

	// Boot 2: replay the journal.
	c2 := newJournalCoordinator(t, clock, journal)
	defer c2.Close()
	if got := c2.Telemetry().JobsRecovered.Value(); got != 1 {
		t.Errorf("JobsRecovered = %d, want 1 (only the long job was live)", got)
	}

	// Terminal history survived with its state.
	gotDone, err := c2.Get(doneV.ID)
	if err != nil {
		t.Fatalf("finished job lost across crash: %v", err)
	}
	if gotDone.State != "done" {
		t.Errorf("finished job state after replay = %s, want done", gotDone.State)
	}

	// The long job is back, flagged recovered, still naming the dead worker.
	gotLong, err := c2.Get(longV.ID)
	if err != nil {
		t.Fatalf("running job lost across crash: %v", err)
	}
	if !gotLong.Recovered || gotLong.Worker != victim.id {
		t.Fatalf("replayed long job = %+v, want recovered on %s", gotLong, victim.id)
	}

	// A submit retried across the crash with the same idempotency key must
	// return the original job, not create a duplicate.
	retryV, _, err := c2.SubmitIdem(fastSpec(50), "t1", "crash-idem-1")
	if err != nil {
		t.Fatal(err)
	}
	if retryV.ID != doneV.ID {
		t.Errorf("idempotent retry created %s, want original %s", retryV.ID, doneV.ID)
	}
	if n := len(c2.List()); n != 2 {
		t.Errorf("job table has %d jobs after idempotent retry, want 2", n)
	}

	// Within the recovery grace the coordinator waits for the dead worker.
	if err := c2.RecordHeartbeat(survivor.heartbeat(), clock.Now()); err != nil {
		t.Fatal(err)
	}
	c2.Tick(clock.Now())
	if v, _ := c2.Get(longV.ID); v.Worker != victim.id {
		t.Fatalf("job rerouted before the recovery grace lapsed: %+v", v)
	}

	// Grace lapses (default 2×TTL): the orphan re-routes to the survivor
	// with a resume pointer into the dead worker's durable checkpoints.
	clock.Advance(2500 * time.Millisecond)
	if err := c2.RecordHeartbeat(survivor.heartbeat(), clock.Now()); err != nil {
		t.Fatal(err)
	}
	c2.Tick(clock.Now())
	moved, err := c2.Get(longV.ID)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Worker != survivor.id || moved.Reroutes != 1 {
		t.Fatalf("after grace job is on %q (reroutes %d), want survivor %s", moved.Worker, moved.Reroutes, survivor.id)
	}
	if got := c2.Telemetry().JobsRerouted.Value(); got != 1 {
		t.Errorf("JobsRerouted = %d, want 1", got)
	}

	// The warm-started rerun completes bit-identically to the reference.
	final := waitFleetState(t, c2, clock, longV.ID, "done")
	if final.Job == nil || final.Job.Result == nil {
		t.Fatal("recovered job has no result")
	}
	if final.Job.Result.GPIters != iters {
		t.Errorf("recovered job ran %d GP iterations, want %d", final.Job.Result.GPIters, iters)
	}
	if final.Job.Result.DPWL != refDone.Result.DPWL {
		t.Errorf("recovered HPWL = %v, want bit-identical %v (diff %g)",
			final.Job.Result.DPWL, refDone.Result.DPWL, final.Job.Result.DPWL-refDone.Result.DPWL)
	}
}

// TestCompactionConcurrentSubmitNoLoss: compaction racing live submits must
// never discard a durable record — a submit acked while the snapshot/rename
// swap is in flight has to survive a crash. Tight Retention plus heavy
// cancel churn forces multiple compactions mid-load; afterwards a second
// boot on the same journal must still hold every live acked job and its
// idempotency key.
func TestCompactionConcurrentSubmitNoLoss(t *testing.T) {
	clock := newFakeClock()
	path := filepath.Join(t.TempDir(), "journal")
	c1, err := NewCoordinator(Config{
		HeartbeatTTL: time.Second,
		PendingLimit: 1024,
		Retention:    1,
		JournalPath:  path,
		Now:          clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var ticker sync.WaitGroup
	ticker.Add(1)
	go func() {
		defer ticker.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c1.Tick(clock.Now()) // prunes terminals and drives maybeCompact
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	const submitters, perSubmitter = 4, 50
	var live [submitters][]string // acked jobs left pending (never cancelled)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				key := fmt.Sprintf("cc-%d-%d", g, i)
				v, _, err := c1.SubmitIdem(fastSpec(int64(g*1000+i)), "t1", key)
				if err != nil {
					t.Errorf("submit %s: %v", key, err)
					return
				}
				if i%10 == 0 {
					live[g] = append(live[g], v.ID)
				} else if _, err := c1.Cancel(v.ID); err != nil {
					t.Errorf("cancel %s: %v", v.ID, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	ticker.Wait()

	if since, total := c1.journal.AppendedSinceCompact(), int(c1.Telemetry().JournalRecords.Value()); since >= total {
		t.Fatalf("compaction never fired under load (appended since compact %d, total %d): test exercised nothing", since, total)
	}

	// kill -9: c1 is abandoned without Close; boot 2 replays the journal.
	c2 := newJournalCoordinator(t, clock, path)
	defer c2.Close()
	for g := range live {
		for _, id := range live[g] {
			v, err := c2.Get(id)
			if err != nil {
				t.Fatalf("acked job %s lost across compaction + crash: %v", id, err)
			}
			if v.State != "pending" {
				t.Errorf("job %s replayed as %q, want pending", id, v.State)
			}
		}
	}
	// The surviving jobs' idempotency keys still dedupe after replay.
	retry, _, err := c2.SubmitIdem(fastSpec(0), "t1", "cc-0-0")
	if err != nil {
		t.Fatal(err)
	}
	if retry.ID != live[0][0] {
		t.Errorf("post-crash idempotent retry created %s, want original %s", retry.ID, live[0][0])
	}
}

// TestJournalFailureRollbackConcurrent: when the journal cannot make an
// accept durable, the submit must be refused and rolled back completely.
// Under concurrent submits the rollback must remove the refused job itself
// (by identity), not whatever happens to sit at the tail of the submission
// order — truncation there leaks unreachable jobs and dangling order
// entries that replay and list views keep resurrecting.
func TestJournalFailureRollbackConcurrent(t *testing.T) {
	clock := newFakeClock()
	path := filepath.Join(t.TempDir(), "journal")
	c, err := NewCoordinator(Config{HeartbeatTTL: time.Second, JournalPath: path, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Break the journal the way a failed post-compaction reopen does.
	c.journal.mu.Lock()
	c.journal.f.Close()
	c.journal.f = nil
	c.journal.mu.Unlock()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				v, _, err := c.SubmitIdem(fastSpec(int64(g*100+i)), "t1", fmt.Sprintf("jf-%d-%d", g, i))
				if err == nil {
					t.Errorf("submit %s acked without a durable record", v.ID)
				}
			}
		}(g)
	}
	wg.Wait()

	if n := len(c.List()); n != 0 {
		t.Fatalf("job table holds %d jobs after refused submits, want 0", n)
	}
	c.mu.Lock()
	jobs, order, idem := len(c.jobs), len(c.order), len(c.idem)
	c.mu.Unlock()
	if jobs != 0 || order != 0 || idem != 0 {
		t.Fatalf("rollback residue: jobs=%d order=%d idem=%d, want all 0", jobs, order, idem)
	}
}

// TestSubmitIdempotencyKeyDedupe: within one boot, a retried key returns the
// same job without charging admission twice, and distinct keys create
// distinct jobs.
func TestSubmitIdempotencyKeyDedupe(t *testing.T) {
	clock := newFakeClock()
	adm, err := NewAdmission(TenantConfig{}, []TenantConfig{{Name: "ci", MaxInFlight: 2}}, clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCoordinator(t, clock, adm)
	w := startWorker(t, "w1", service.Config{})
	if err := c.RecordHeartbeat(w.heartbeat(), clock.Now()); err != nil {
		t.Fatal(err)
	}

	v1, _, err := c.SubmitIdem(slowSpec(1), "ci", "key-a")
	if err != nil {
		t.Fatal(err)
	}
	// Quota is 2 and one slot is held: if the retry double-charged, the next
	// distinct submit would be rejected.
	v2, _, err := c.SubmitIdem(slowSpec(1), "ci", "key-a")
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID != v1.ID {
		t.Fatalf("retried key got job %s, want %s", v2.ID, v1.ID)
	}
	v3, _, err := c.SubmitIdem(slowSpec(2), "ci", "key-b")
	if err != nil {
		t.Fatalf("distinct key rejected (retry double-charged admission?): %v", err)
	}
	if v3.ID == v1.ID {
		t.Fatal("distinct keys shared a job")
	}
	if n := len(c.List()); n != 2 {
		t.Fatalf("job table = %d jobs, want 2", n)
	}
	for _, id := range []string{v1.ID, v3.ID} {
		if _, err := c.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
}

// fakeWorker is a minimal hand-rolled worker API for race tests: POST /jobs
// blocks until released, DELETE records the cancel, GET /jobs returns empty.
type fakeWorker struct {
	srv      *httptest.Server
	posted   chan struct{} // closed-ish signal: one token per POST arrival
	release  chan struct{} // each token lets one blocked POST respond
	posts    atomic.Int64
	cancels  atomic.Int64
	remoteID string
}

func newFakeWorker(t *testing.T, remoteID string) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{
		posted:   make(chan struct{}, 16),
		release:  make(chan struct{}, 16),
		remoteID: remoteID,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		fw.posts.Add(1)
		fw.posted <- struct{}{}
		<-fw.release
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.JobView{ID: fw.remoteID, State: service.StateQueued}) //nolint:errcheck
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fw.cancels.Add(1)
		json.NewEncoder(w).Encode(service.JobView{ID: r.PathValue("id"), State: service.StateCancelled}) //nolint:errcheck
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"jobs":[]}`)
	})
	fw.srv = httptest.NewServer(mux)
	t.Cleanup(fw.srv.Close)
	return fw
}

func (fw *fakeWorker) heartbeat() Heartbeat {
	return Heartbeat{ID: "fake", URL: fw.srv.URL, Stats: service.ManagerStats{PlaceWorkers: 1, QueueCap: 8}}
}

// TestCancelVsDispatchRace: a cancel that lands while the dispatch POST is
// in flight must not leave the job running on the worker. The coordinator
// notices the job went terminal while it was posting and revokes the
// assignment on the worker; the job's final state is cancelled.
func TestCancelVsDispatchRace(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, nil)
	fw := newFakeWorker(t, "rw-1")
	if err := c.RecordHeartbeat(fw.heartbeat(), clock.Now()); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Submit(slowSpec(1), "t1") //nolint:errcheck // outcome checked via Get below
	}()

	// Wait until the dispatch POST is parked inside the fake worker, then
	// cancel through the coordinator while the assignment is still in flight.
	select {
	case <-fw.posted:
	case <-time.After(10 * time.Second):
		t.Fatal("dispatch never reached the worker")
	}
	jobs := c.List()
	if len(jobs) != 1 {
		t.Fatalf("job table = %d jobs mid-dispatch, want 1", len(jobs))
	}
	id := jobs[0].ID
	if _, err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}

	// Let the parked POST complete: the worker acks the job AFTER it was
	// cancelled. The coordinator must revoke it.
	fw.release <- struct{}{}
	<-done

	deadline := time.Now().Add(10 * time.Second)
	for fw.cancels.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never revoked the raced dispatch on the worker")
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != "cancelled" {
		t.Fatalf("raced job state = %s, want cancelled", v.State)
	}
	if got := fw.posts.Load(); got != 1 {
		t.Fatalf("worker saw %d dispatches, want exactly 1", got)
	}
}

// stubWorker is a scripted worker API over a job table the test drives:
// POST /jobs queues a job (429 while busy), GET lists or fetches one, and
// DELETE cancels a live job (with ?if=queued, only a queued one; a 500
// while failCancels). park makes one method's fetch or cancel hold its
// reply.
type stubWorker struct {
	id, dataDir     string
	srv             *httptest.Server
	mu              sync.Mutex
	ids             []string
	states          map[string]service.State
	busy            bool
	failCancels     bool
	parkOn          string // method whose replies park ("" = none)
	parked, release chan struct{}
}

func newStubWorker(t *testing.T, id, dataDir string) *stubWorker {
	t.Helper()
	sw := &stubWorker{id: id, dataDir: dataDir, states: make(map[string]service.State)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		sw.mu.Lock()
		defer sw.mu.Unlock()
		if sw.busy {
			service.WriteError(w, http.StatusTooManyRequests, "queue full")
			return
		}
		v := service.JobView{ID: fmt.Sprintf("%s-%d", sw.id, len(sw.ids)+1), State: service.StateQueued}
		sw.ids = append(sw.ids, v.ID)
		sw.states[v.ID] = v.State
		service.WriteJSON(w, http.StatusAccepted, v)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		sw.mu.Lock()
		defer sw.mu.Unlock()
		views := []service.JobView{}
		for _, id := range sw.ids {
			views = append(views, service.JobView{ID: id, State: sw.states[id]})
		}
		service.WriteJSON(w, http.StatusOK, map[string]any{"jobs": views})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		sw.mu.Lock()
		v := service.JobView{ID: id, State: sw.states[id]}
		sw.mu.Unlock()
		sw.hold(r.Method)
		service.WriteJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, conditional := r.PathValue("id"), r.URL.Query().Get("if") == "queued"
		sw.mu.Lock()
		if sw.failCancels {
			sw.mu.Unlock()
			service.WriteError(w, http.StatusInternalServerError, "cancel failed")
			return
		}
		st, ok := sw.states[id]
		refused := st.Terminal() || (conditional && st != service.StateQueued)
		if ok && !refused {
			sw.states[id] = service.StateCancelled
		}
		sw.mu.Unlock()
		switch {
		case !ok:
			service.WriteError(w, http.StatusNotFound, "unknown job")
		case refused:
			service.WriteError(w, http.StatusConflict, "job is "+string(st))
		default:
			sw.hold(r.Method)
			service.WriteJSON(w, http.StatusOK, service.JobView{ID: id, State: service.StateCancelled})
		}
	})
	sw.srv = httptest.NewServer(mux)
	t.Cleanup(sw.srv.Close)
	return sw
}

// heartbeat reports one run slot with the given load.
func (sw *stubWorker) heartbeat(running, queued int) Heartbeat {
	return Heartbeat{ID: sw.id, URL: sw.srv.URL, DataDir: sw.dataDir, Stats: service.ManagerStats{
		PlaceWorkers: 1, QueueCap: 8, Running: running, QueueDepth: queued,
	}}
}

// park makes every later fetch or successful cancel by method signal on
// the returned parked channel and hold its reply until release is sent.
// Cleanup releases every holder, so a failing test does not hang closing
// the server.
func (sw *stubWorker) park(t *testing.T, method string) (parked, release chan struct{}) {
	parked, release = make(chan struct{}, 1), make(chan struct{}, 1)
	sw.mu.Lock()
	sw.parkOn, sw.parked, sw.release = method, parked, release
	sw.mu.Unlock()
	t.Cleanup(func() { close(release) })
	return parked, release
}

func (sw *stubWorker) hold(method string) {
	sw.mu.Lock()
	parked, release := sw.parked, sw.release
	hold := sw.parkOn == method
	sw.mu.Unlock()
	if hold {
		select {
		case parked <- struct{}{}:
		default: // an earlier arrival is still unread
		}
		<-release
	}
}

func (sw *stubWorker) set(id string, st service.State) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.states[id] = st
}

// TestCancelVsStealRace: a cancel that lands while a steal's POST to the
// idle target is in flight must not leave the job running there. The steal
// re-dispatches through assign, which sees the job went terminal during the
// POST and revokes the target's copy, so the job ends cancelled.
func TestCancelVsStealRace(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, nil)
	src := newStubWorker(t, "src", "")
	if err := c.RecordHeartbeat(src.heartbeat(0, 0), clock.Now()); err != nil {
		t.Fatal(err)
	}
	v, _, err := c.Submit(slowSpec(1), "t1")
	if err != nil {
		t.Fatal(err)
	}
	if v.Worker != "src" {
		t.Fatalf("job on %q, want src", v.Worker)
	}

	// The source reports a queue and an idle target joins: the next tick
	// steals the job, and the target's POST parks.
	dst := newFakeWorker(t, "dst-1")
	for _, hb := range []Heartbeat{src.heartbeat(1, 1), dst.heartbeat()} {
		if err := c.RecordHeartbeat(hb, clock.Now()); err != nil {
			t.Fatal(err)
		}
	}
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		c.Tick(clock.Now())
	}()
	select {
	case <-dst.posted:
	case <-time.After(10 * time.Second):
		t.Fatal("the steal never re-posted the job to the idle worker")
	}
	if _, err := c.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	dst.release <- struct{}{}
	<-ticked

	got, err := c.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if n := dst.cancels.Load(); n != 1 || got.State != "cancelled" {
		t.Fatalf("raced steal: state=%s worker=%s steals=%d, %d cancels on the target; want cancelled and the target's copy revoked",
			got.State, got.Worker, got.Steals, n)
	}
}

// TestStealWindowRaces: once a steal's conditional cancel has landed, the
// source reports the job cancelled until the steal clears the binding. A
// Get polled in that window must not take the source's answer as the job's
// end, and a Cancel in that window must win over the steal.
func TestStealWindowRaces(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		cancel     bool
	}{
		{name: "get", want: string(service.StateQueued)},
		{name: "cancel", want: "cancelled", cancel: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			c := newTestCoordinator(t, clock, nil)
			src, dst := newStubWorker(t, "src", ""), newStubWorker(t, "dst", "")
			if err := c.RecordHeartbeat(src.heartbeat(0, 0), clock.Now()); err != nil {
				t.Fatal(err)
			}
			v, _, err := c.Submit(slowSpec(1), "t1")
			if err != nil {
				t.Fatal(err)
			}
			parked, release := src.park(t, http.MethodDelete)
			for _, hb := range []Heartbeat{src.heartbeat(1, 1), dst.heartbeat(0, 0)} {
				if err := c.RecordHeartbeat(hb, clock.Now()); err != nil {
					t.Fatal(err)
				}
			}
			ticked := make(chan struct{})
			go func() {
				defer close(ticked)
				c.Tick(clock.Now())
			}()
			select {
			case <-parked:
			case <-time.After(10 * time.Second):
				t.Fatal("the steal never cancelled the source's copy")
			}
			if tc.cancel {
				_, err = c.Cancel(v.ID)
			} else {
				_, err = c.Get(v.ID)
			}
			if err != nil {
				t.Fatal(err)
			}
			release <- struct{}{}
			<-ticked

			got, err := c.Get(v.ID)
			if err != nil {
				t.Fatal(err)
			}
			c.mu.Lock()
			terminal := c.jobs[v.ID].terminal
			c.mu.Unlock()
			dst.mu.Lock()
			posted := len(dst.ids)
			dst.mu.Unlock()
			// Cancelled: finished, and never posted to the target. Polled:
			// still live, and stolen onto the target.
			if got.State != tc.want || terminal != tc.cancel || (posted == 0) != tc.cancel {
				t.Fatalf("job state=%s terminal=%v worker=%q steals=%d, %d posts to the target; want %s",
					got.State, terminal, got.Worker, got.Steals, posted, tc.want)
			}
		})
	}
}

// TestMovedJobIgnoresStaleAnswers: a job that reroutes while a worker call
// about it is in flight on its old worker takes nothing from that worker's
// answer, which describes a copy the job no longer has. A Get leaves the
// job live on its new worker; a Cancel follows it there.
func TestMovedJobIgnoresStaleAnswers(t *testing.T) {
	for _, tc := range []struct {
		name, method string
		old          service.State // the old worker's copy: a Get reports it, a Cancel needs it live
		want         service.State // the job's state and its copy's on dst
	}{
		{name: "get", method: http.MethodGet, old: service.StateFailed, want: service.StateQueued},
		{name: "cancel", method: http.MethodDelete, old: service.StateQueued, want: service.StateCancelled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			c := newTestCoordinator(t, clock, nil)
			src, dst := newStubWorker(t, "src", ""), newStubWorker(t, "dst", "")
			if err := c.RecordHeartbeat(src.heartbeat(0, 0), clock.Now()); err != nil {
				t.Fatal(err)
			}
			v, _, err := c.Submit(slowSpec(1), "t1")
			if err != nil {
				t.Fatal(err)
			}
			src.set("src-1", tc.old)
			parked, release := src.park(t, tc.method)
			if err := c.RecordHeartbeat(dst.heartbeat(0, 0), clock.Now()); err != nil {
				t.Fatal(err)
			}
			called := make(chan struct{})
			go func() {
				defer close(called)
				if tc.method == http.MethodGet {
					c.Get(v.ID) //nolint:errcheck // outcome checked below
				} else {
					c.Cancel(v.ID) //nolint:errcheck
				}
			}()
			select {
			case <-parked:
			case <-time.After(10 * time.Second):
				t.Fatal("the call never reached the job's worker")
			}
			// The worker drains away mid-call: its job reroutes onto dst.
			if !c.DeregisterWorker("src") {
				t.Fatal("src was not registered")
			}
			release <- struct{}{}
			<-called

			got := c.List()[0]
			dst.mu.Lock()
			copyState := dst.states["dst-1"]
			dst.mu.Unlock()
			if got.State != string(tc.want) || got.Worker != "dst" || copyState != tc.want {
				t.Fatalf("job state=%s on %q, copy on dst %q; want %s on dst, copy %s",
					got.State, got.Worker, copyState, tc.want, tc.want)
			}
		})
	}
}

// TestCancelWithWorkerDown: a cancel whose worker call fails, because the
// worker is down but not yet expired, ends the job in the coordinator. The
// worker's expiry then reroutes nothing, and a coordinator replaying the
// journal holds the job cancelled too.
func TestCancelWithWorkerDown(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	c := newJournalCoordinator(t, clock, filepath.Join(dir, "journal"))
	defer c.Close()
	src, dst := newStubWorker(t, "src", ""), newStubWorker(t, "dst", "")
	if err := c.RecordHeartbeat(src.heartbeat(0, 0), clock.Now()); err != nil {
		t.Fatal(err)
	}
	v, _, err := c.Submit(slowSpec(1), "t1")
	if err != nil {
		t.Fatal(err)
	}
	if v.Worker != "src" {
		t.Fatalf("job on %q, want src", v.Worker)
	}
	if err := c.RecordHeartbeat(dst.heartbeat(0, 0), clock.Now()); err != nil {
		t.Fatal(err)
	}
	src.srv.Close()
	cv, err := c.Cancel(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cv.State != "cancelled" {
		t.Errorf("cancel answered state=%s, want cancelled", cv.State)
	}

	// src stays silent past the TTL (and, replayed, past the recovery
	// grace) while dst keeps beating.
	settle := func(c *Coordinator) {
		for i := 0; i < 2; i++ {
			clock.Advance(1500 * time.Millisecond)
			if err := c.RecordHeartbeat(dst.heartbeat(0, 0), clock.Now()); err != nil {
				t.Fatal(err)
			}
			c.Tick(clock.Now())
		}
	}
	check := func(stage string, c *Coordinator) {
		t.Helper()
		got, err := c.Get(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		dst.mu.Lock()
		posts := len(dst.ids)
		dst.mu.Unlock()
		if got.State != "cancelled" || got.Reroutes != 0 || posts != 0 {
			t.Fatalf("%s: state=%s worker=%s reroutes=%d, %d posts to dst; want cancelled, 0 reroutes, no posts",
				stage, got.State, got.Worker, got.Reroutes, posts)
		}
	}
	settle(c)
	check("live", c)

	data, err := os.ReadFile(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	replayPath := filepath.Join(dir, "replay")
	if err := os.WriteFile(replayPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := newJournalCoordinator(t, clock, replayPath)
	defer r.Close()
	settle(r)
	check("replayed", r)
}

// TestFailedCancelRevokesLiveCopy: when a cancel's worker call fails while
// the worker stays up, the next sync finds the job's copy still live on the
// worker and cancels it there.
func TestFailedCancelRevokesLiveCopy(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, nil)
	src := newStubWorker(t, "src", "")
	if err := c.RecordHeartbeat(src.heartbeat(0, 0), clock.Now()); err != nil {
		t.Fatal(err)
	}
	v, _, err := c.Submit(slowSpec(1), "t1")
	if err != nil {
		t.Fatal(err)
	}
	src.mu.Lock()
	src.failCancels = true
	src.mu.Unlock()
	cv, err := c.Cancel(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	src.mu.Lock()
	src.failCancels = false
	before := src.states[v.RemoteID]
	src.mu.Unlock()
	if cv.State != "cancelled" || before != service.StateQueued {
		t.Fatalf("cancel answered state=%s with the copy %s; want cancelled, copy queued", cv.State, before)
	}
	c.Tick(clock.Now())
	src.mu.Lock()
	after := src.states[v.RemoteID]
	src.mu.Unlock()
	if after != service.StateCancelled {
		t.Fatalf("copy on the worker is %s after a sync, want cancelled", after)
	}
}

// journaledJob is the part of a job record the journal must reproduce.
type journaledJob struct {
	worker, remote, resume string
	terminal               bool
	state                  string // compared once terminal: live states come from polling
	reroutes, steals       int
}

func journaledTable(c *Coordinator) map[string]journaledJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]journaledJob, len(c.jobs))
	for id, j := range c.jobs {
		row := journaledJob{worker: j.worker, remote: j.remoteID, terminal: j.terminal, reroutes: j.reroutes, steals: j.steals}
		if j.terminal {
			row.state = j.state
		}
		if j.spec.Resume != nil {
			row.resume = j.spec.Resume.Dir
		}
		out[id] = row
	}
	return out
}

// TestJournalReplayMatchesLive: a coordinator booted on a copy of the live
// journal holds the live job table — the binding, reroute and steal counts,
// resume pointer and terminal state of every job — both when it replays the
// appended history and when it replays the snapshot its own boot compaction
// wrote. The live run covers submit and assign, a steal, a worker expiry
// that reroutes with a resume pointer, a cancel while pending and a
// finished job.
func TestJournalReplayMatchesLive(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	live := newJournalCoordinator(t, clock, filepath.Join(dir, "journal"))
	defer live.Close()
	heartbeat := func(hbs ...Heartbeat) {
		t.Helper()
		for _, hb := range hbs {
			if err := live.RecordHeartbeat(hb, clock.Now()); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit := func(seed int64) string {
		t.Helper()
		v, _, err := live.Submit(slowSpec(seed), "t1")
		if err != nil {
			t.Fatal(err)
		}
		return v.ID
	}

	// Submit and assign: wA runs the first job and queues the second.
	wA, wB := newStubWorker(t, "wA", "/data/wA"), newStubWorker(t, "wB", "/data/wB")
	heartbeat(wA.heartbeat(0, 0))
	expired, stolen := submit(1), submit(2)
	wA.set("wA-1", service.StateRunning)
	// A steal: idle wB joins while wA reports its queue.
	heartbeat(wA.heartbeat(1, 1), wB.heartbeat(0, 0))
	live.Tick(clock.Now())
	// A worker expiry: wA falls silent and its running job reroutes onto wB
	// with a resume pointer into wA's store.
	clock.Advance(1500 * time.Millisecond)
	heartbeat(wB.heartbeat(1, 1))
	live.Tick(clock.Now())
	// A cancel while pending: wB pushes back, so a new job parks.
	wB.mu.Lock()
	wB.busy = true
	wB.mu.Unlock()
	cancelled := submit(3)
	if _, err := live.Cancel(cancelled); err != nil {
		t.Fatal(err)
	}
	// A finished job: the stolen job completes on wB.
	wB.set("wB-1", service.StateDone)
	live.Tick(clock.Now())

	want := journaledTable(live)
	for id, row := range map[string]journaledJob{
		expired:   {worker: "wB", remote: "wB-2", resume: "/data/wA/jobs/wA-1/checkpoints", reroutes: 1},
		stolen:    {worker: "wB", remote: "wB-1", terminal: true, state: "done", steals: 1},
		cancelled: {terminal: true, state: "cancelled"},
	} {
		if want[id] != row {
			t.Fatalf("live job %s = %+v, want %+v: the scenario did not run as scripted", id, want[id], row)
		}
	}

	data, err := os.ReadFile(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	replayPath := filepath.Join(dir, "replay")
	if err := os.WriteFile(replayPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The first boot replays the appended history and compacts the copy;
	// the second replays that compaction.
	for _, stage := range []string{"history", "compacted snapshot"} {
		r := newJournalCoordinator(t, clock, replayPath)
		got := journaledTable(r)
		r.Close()
		if len(got) != len(want) {
			t.Errorf("%s replay: %d jobs, live %d", stage, len(got), len(want))
		}
		for id, row := range want {
			if got[id] != row {
				t.Errorf("%s replay: job %s = %+v, live %+v", stage, id, got[id], row)
			}
		}
	}
}

// TestPendingOverflowRetryAfter: with no live workers and the pending queue
// full, the HTTP API answers 429 with an integer Retry-After, and the
// overflow submit leaves no residue (its idempotency key is reusable once
// capacity exists).
func TestPendingOverflowRetryAfter(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{
		HeartbeatTTL: time.Second,
		PendingLimit: 1,
		Now:          clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	api := httptest.NewServer(NewHandler(c))
	defer api.Close()

	post := func(key string) *http.Response {
		t.Helper()
		body, _ := json.Marshal(fastSpec(1))
		req, err := http.NewRequest(http.MethodPost, api.URL+"/v1/jobs", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("X-Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	r1 := post("")
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202 (pending)", r1.StatusCode)
	}
	r1.Body.Close()

	r2 := post("ovf-key")
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", r2.StatusCode)
	}
	secs, err := strconv.Atoi(r2.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", r2.Header.Get("Retry-After"))
	}
	r2.Body.Close()
	if n := len(c.List()); n != 1 {
		t.Fatalf("job table = %d after overflow 429, want 1 (no residue)", n)
	}

	// Capacity appears; the SAME key must now be accepted as a fresh job —
	// the revoked accept did not poison it.
	w := startWorker(t, "w1", service.Config{})
	if err := c.RecordHeartbeat(w.heartbeat(), clock.Now()); err != nil {
		t.Fatal(err)
	}
	c.Tick(clock.Now())
	r3 := post("ovf-key")
	if r3.StatusCode != http.StatusAccepted {
		t.Fatalf("retry after capacity = %d, want 202", r3.StatusCode)
	}
	r3.Body.Close()
}

// TestDispatchRetriesTransientFailure: a worker that fails its first POST
// with a 500 and accepts the retry still gets the job — one submit, one
// assignment, breaker closed again on success.
func TestDispatchRetriesTransientFailure(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, nil)
	var posts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) == 1 {
			http.Error(w, "mid-restart", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.JobView{ID: "rw-1", State: service.StateQueued}) //nolint:errcheck
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"jobs":[]}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	hb := Heartbeat{ID: "flaky", URL: srv.URL, Stats: service.ManagerStats{PlaceWorkers: 1, QueueCap: 8}}
	if err := c.RecordHeartbeat(hb, clock.Now()); err != nil {
		t.Fatal(err)
	}

	v, _, err := c.Submit(slowSpec(1), "t1")
	if err != nil {
		t.Fatal(err)
	}
	if v.Worker != "flaky" {
		t.Fatalf("job not assigned through the transient failure: %+v", v)
	}
	if got := posts.Load(); got != 2 {
		t.Fatalf("worker saw %d POSTs, want 2 (fail + retry)", got)
	}
	if st := c.brk.State("flaky"); st != BreakerLive {
		t.Fatalf("breaker state after recovery = %s, want live", st)
	}
}
