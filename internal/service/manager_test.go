package service

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

// synthSpec builds a small synthetic GP-only job. maxIters controls how long
// it runs: StopOverflow is set unreachably low, so the job runs exactly
// maxIters iterations unless cancelled.
func synthSpec(maxIters int) JobSpec {
	return JobSpec{
		Design: DesignSpec{Synth: &SynthSpec{Cells: 64, Seed: 1}},
		Model:  "WA",
		Placer: PlacerSpec{
			MaxIters:     maxIters,
			StopOverflow: 1e-9,
			GridX:        16,
			GridY:        16,
		},
		Flow: FlowSpec{GPOnly: true},
	}
}

// slowIters is large enough that a job never finishes on its own within a
// test run; such jobs must always be cancelled (or killed by Shutdown).
const slowIters = 1 << 20

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m := NewManager(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		m.Shutdown(ctx) // double Shutdown returns ErrDraining; fine in cleanup
	})
	return m
}

// waitState polls until the job reaches want (or any terminal state, which
// fails the test if it is not the wanted one).
func waitState(t *testing.T, m *Manager, id string, want State) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("job %s reached %s (err=%q), want %s", id, v.State, v.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
	return JobView{}
}

func TestJobLifecycleDone(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 4})
	const iters = 40
	v, err := m.Submit(synthSpec(iters))
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateQueued {
		t.Errorf("fresh job state %s, want queued", v.State)
	}
	done := waitState(t, m, v.ID, StateDone)
	if done.Result == nil {
		t.Fatal("done job has no result")
	}
	if done.Result.GPIters != iters {
		t.Errorf("ran %d GP iterations, want %d", done.Result.GPIters, iters)
	}
	if done.Result.DPWL <= 0 {
		t.Errorf("done job has no HPWL: %+v", done.Result)
	}
	if done.Progress == nil || done.Progress.Iteration != iters {
		t.Errorf("live progress = %+v, want iteration %d", done.Progress, iters)
	}
	if done.StartedAt == nil || done.FinishedAt == nil {
		t.Error("done job missing start/finish timestamps")
	}
	if done.RunSeconds <= 0 {
		t.Errorf("done job RunSeconds = %g, want > 0", done.RunSeconds)
	}

	pts, _, err := m.TrajectoryAfter(v.ID, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != iters {
		t.Errorf("trajectory has %d points, want %d", len(pts), iters)
	}

	tel := m.Telemetry()
	if got := tel.JobsDone.Value(); got != 1 {
		t.Errorf("JobsDone = %d, want 1", got)
	}
	if got := tel.Iterations.Value(); got != iters {
		t.Errorf("Iterations = %d, want %d", got, iters)
	}
	if tel.LastHPWL.Value() <= 0 {
		t.Error("LastHPWL not set after a finished job")
	}
	if tel.TotalSeconds.Count() != 1 || tel.GPSeconds.Count() != 1 {
		t.Error("stage latency histograms not observed")
	}
}

func TestQueueFullAndCancelQueuedVsRunning(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 1})

	a, err := m.Submit(synthSpec(slowIters))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, a.ID, StateRunning)

	// The single worker is busy with a; b occupies the whole queue.
	b, err := m.Submit(synthSpec(slowIters))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(synthSpec(slowIters)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit beyond QueueDepth: got %v, want ErrQueueFull", err)
	}
	if got := m.Telemetry().JobsRejected.Value(); got != 1 {
		t.Errorf("JobsRejected = %d, want 1", got)
	}

	// Cancelling a queued job is immediate: it never runs.
	bv, err := m.Cancel(b.ID)
	if err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if bv.State != StateCancelled {
		t.Errorf("queued job state after cancel = %s, want cancelled", bv.State)
	}
	if bv.StartedAt != nil {
		t.Error("cancelled-while-queued job has a start time")
	}
	if bv.FinishedAt == nil {
		t.Error("cancelled-while-queued job has no finish time")
	}

	// Cancelling a running job takes effect within one placement iteration.
	if _, err := m.Cancel(a.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	av := waitState(t, m, a.ID, StateCancelled)
	if av.RunSeconds <= 0 {
		t.Errorf("cancelled running job RunSeconds = %g, want > 0", av.RunSeconds)
	}
	if _, err := m.Cancel(a.ID); !errors.Is(err, ErrJobFinished) {
		t.Errorf("cancel finished job: got %v, want ErrJobFinished", err)
	}

	if got := m.Telemetry().JobsCancelled.Value(); got != 2 {
		t.Errorf("JobsCancelled = %d, want 2", got)
	}
	if _, err := m.Get("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Get unknown: got %v, want ErrUnknownJob", err)
	}
	if _, err := m.Cancel("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Cancel unknown: got %v, want ErrUnknownJob", err)
	}
}

func TestConcurrentSubmitsBeyondQueueDepth(t *testing.T) {
	const depth = 2
	m := newTestManager(t, Config{Workers: 1, QueueDepth: depth})

	blocker, err := m.Submit(synthSpec(slowIters))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, StateRunning)

	// With the worker pinned, exactly depth of these can be accepted.
	const n = 12
	var wg sync.WaitGroup
	ids := make(chan string, n)
	var full, other int64
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Submit(synthSpec(slowIters))
			switch {
			case err == nil:
				ids <- v.ID
			case errors.Is(err, ErrQueueFull):
				mu.Lock()
				full++
				mu.Unlock()
			default:
				mu.Lock()
				other++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(ids)

	accepted := 0
	for id := range ids {
		accepted++
		if _, err := m.Cancel(id); err != nil {
			t.Errorf("cancel queued %s: %v", id, err)
		}
	}
	if accepted != depth {
		t.Errorf("accepted %d concurrent submits, want %d", accepted, depth)
	}
	if full != n-depth {
		t.Errorf("%d rejections with ErrQueueFull, want %d", full, n-depth)
	}
	if other != 0 {
		t.Errorf("%d submits failed with unexpected errors", other)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, StateCancelled)
}

// TestRaceLifecycle runs the full submit -> poll -> cancel lifecycle from
// many goroutines while readers hammer List and the metrics endpoint; it is
// only meaningful under `go test -race`.
func TestRaceLifecycle(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2, QueueDepth: 16})
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.List()
			m.Telemetry().WritePrometheus(io.Discard)
			time.Sleep(time.Millisecond)
		}
	}()

	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			iters := 15
			if i%2 == 0 {
				iters = slowIters // these must be cancelled mid-run
			}
			v, err := m.Submit(synthSpec(iters))
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				cur, err := m.Get(v.ID)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if cur.State.Terminal() {
					return
				}
				if i%2 == 0 && cur.State == StateRunning {
					m.Cancel(v.ID) //nolint:errcheck // racing a finishing job is fine
				}
				m.TrajectoryAfter(v.ID, -1) //nolint:errcheck
				time.Sleep(2 * time.Millisecond)
			}
			t.Errorf("job %s never finished", v.ID)
		}(i)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	tel := m.Telemetry()
	if got := tel.JobsSubmitted.Value(); got != n {
		t.Errorf("JobsSubmitted = %d, want %d", got, n)
	}
	if done, canc := tel.JobsDone.Value(), tel.JobsCancelled.Value(); done+canc != n {
		t.Errorf("done %d + cancelled %d != submitted %d", done, canc, n)
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 4})
	cases := []struct {
		name string
		mut  func(*JobSpec)
	}{
		{"no design source", func(s *JobSpec) { s.Design = DesignSpec{} }},
		{"two design sources", func(s *JobSpec) {
			s.Design.Suite, s.Design.Name = "ispd2006", "adaptec5"
		}},
		{"aux disabled", func(s *JobSpec) {
			s.Design = DesignSpec{Aux: "adaptec5.aux"}
		}},
		{"unknown model", func(s *JobSpec) { s.Model = "nope" }},
		{"bad optimizer", func(s *JobSpec) { s.Placer.Optimizer = "sgd" }},
		{"non-pow2 grid", func(s *JobSpec) { s.Placer.GridX = 100 }},
		{"negative timeout", func(s *JobSpec) { s.TimeoutSeconds = -1 }},
		{"zero cells", func(s *JobSpec) { s.Design.Synth.Cells = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := synthSpec(10)
			tc.mut(&spec)
			if _, err := m.Submit(spec); !errors.Is(err, ErrSpecRejected) {
				t.Errorf("got %v, want ErrSpecRejected", err)
			}
		})
	}
	if got := m.Telemetry().JobsRejected.Value(); got != int64(len(cases)) {
		t.Errorf("JobsRejected = %d, want %d", got, len(cases))
	}
}

func TestJobDeadlineExceeded(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 4})
	spec := synthSpec(slowIters)
	spec.TimeoutSeconds = 0.05
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fv := waitState(t, m, v.ID, StateFailed)
	if fv.Error != "deadline exceeded" {
		t.Errorf("error = %q, want %q", fv.Error, "deadline exceeded")
	}
	if got := m.Telemetry().JobsFailed.Value(); got != 1 {
		t.Errorf("JobsFailed = %d, want 1", got)
	}
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 4})
	v, err := m.Submit(synthSpec(25))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	got, err := m.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Errorf("drained job state = %s, want done", got.State)
	}
	if _, err := m.Submit(synthSpec(10)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after shutdown: got %v, want ErrDraining", err)
	}
}

func TestRetentionGC(t *testing.T) {
	const keep = 2
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 8, Retention: keep})
	var ids []string
	for i := 0; i < 5; i++ {
		v, err := m.Submit(synthSpec(5))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, v.ID, StateDone)
		ids = append(ids, v.ID)
	}
	if got := len(m.List()); got != keep {
		t.Errorf("retained %d finished jobs, want %d", got, keep)
	}
	if _, err := m.Get(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("oldest job should be pruned, Get returned %v", err)
	}
	if _, err := m.Get(ids[len(ids)-1]); err != nil {
		t.Errorf("newest job should be retained, Get returned %v", err)
	}
}
