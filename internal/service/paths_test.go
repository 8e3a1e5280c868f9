package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// pathCounters reads every telemetry counter and gauge a job's lifecycle can
// move, keyed by a short name.
func pathCounters(m *Manager) map[string]int64 {
	t := m.Telemetry()
	return map[string]int64{
		"submitted":   t.JobsSubmitted.Value(),
		"rejected":    t.JobsRejected.Value(),
		"done":        t.JobsDone.Value(),
		"failed":      t.JobsFailed.Value(),
		"cancelled":   t.JobsCancelled.Value(),
		"recovered":   t.JobsRecovered.Value(),
		"interrupted": t.JobsInterrupted.Value(),
		"panicked":    t.JobsPanicked.Value(),
		"hits":        t.CacheHits.Value(),
		"near_hits":   t.CacheNearHits.Value(),
		"misses":      t.CacheMisses.Value(),
		"queue_depth": t.QueueDepth.Value(),
		"running":     t.JobsRunning.Value(),
	}
}

// stamps names which of a status's timestamps are set: s(ubmitted),
// r(unning since) and f(inished).
func stamps(st PersistedStatus) string {
	out := ""
	for _, ts := range []struct {
		tag string
		t   time.Time
	}{{"s", st.SubmittedAt}, {"r", st.StartedAt}, {"f", st.FinishedAt}} {
		if !ts.t.IsZero() {
			out += ts.tag
		}
	}
	return out
}

// waitProgress waits until a running job has finished an iteration, which
// is after its cache lookup: the counters of its start have all moved.
func waitProgress(t *testing.T, m *Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Progress != nil && v.Progress.Iteration >= 1 {
			return
		}
		if v.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s never made progress: %+v", id, v)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitIdle waits until no job runs or waits in the queue, so every counter
// of the jobs that ran has settled.
func waitIdle(t *testing.T, m *Manager) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for m.Telemetry().JobsRunning.Value() != 0 || m.Telemetry().QueueDepth.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("manager never went idle")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobPaths drives every way a placerd job can end through a durable
// manager and pins, for each, what the job view says, what status.json
// holds, how each telemetry counter moved, and whether a manager reopened on
// the data directory recovers the job.
func TestJobPaths(t *testing.T) {
	badDesign := synthSpec(20)
	badDesign.Design = DesignSpec{Suite: "ispd2006", Name: "nope"}
	deadline := synthSpec(slowIters)
	deadline.TimeoutSeconds = 0.05

	// A path's drive submits the job under test and returns its id once the
	// path has ended. blocker, when set, runs a job on the only worker first
	// (it is cancelled after the counters are read) so the job under test
	// stays queued.
	type path struct {
		name    string
		blocker bool
		drive   func(t *testing.T, m *Manager) string

		state   State  // in-memory state
		errPfx  string // prefix of the job's error; "" means no error
		cache   string // cache outcome
		disk    State  // state in status.json
		stamps  string // timestamps set in status.json
		delta   map[string]int64
		recover bool // a reopened manager re-enqueues the job
	}
	submit := func(t *testing.T, m *Manager, spec JobSpec) string {
		t.Helper()
		v, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return v.ID
	}
	finish := func(t *testing.T, m *Manager, spec JobSpec, want State) string {
		t.Helper()
		id := submit(t, m, spec)
		waitState(t, m, id, want)
		waitIdle(t, m)
		return id
	}
	paths := []path{
		{
			name:  "fresh done",
			drive: func(t *testing.T, m *Manager) string { return finish(t, m, synthSpec(20), StateDone) },
			state: StateDone, cache: "miss", disk: StateDone, stamps: "srf",
			delta: map[string]int64{"submitted": 1, "done": 1, "misses": 1},
		},
		{
			name: "exact cache hit",
			drive: func(t *testing.T, m *Manager) string {
				finish(t, m, synthSpec(20), StateDone)
				return finish(t, m, synthSpec(20), StateDone)
			},
			state: StateDone, cache: "hit", disk: StateDone, stamps: "srf",
			delta: map[string]int64{"submitted": 2, "done": 2, "misses": 1, "hits": 1},
		},
		{
			name: "cancel while queued", blocker: true,
			drive: func(t *testing.T, m *Manager) string {
				id := submit(t, m, synthSpec(20))
				if _, err := m.Cancel(id); err != nil {
					t.Fatal(err)
				}
				return id
			},
			state: StateCancelled, disk: StateCancelled, stamps: "sf",
			delta: map[string]int64{"submitted": 1, "cancelled": 1},
		},
		{
			name: "cancel queued only while queued", blocker: true,
			drive: func(t *testing.T, m *Manager) string {
				id := submit(t, m, synthSpec(20))
				if _, err := m.CancelQueued(id); err != nil {
					t.Fatal(err)
				}
				return id
			},
			state: StateCancelled, disk: StateCancelled, stamps: "sf",
			delta: map[string]int64{"submitted": 1, "cancelled": 1},
		},
		{
			name: "cancel while running",
			drive: func(t *testing.T, m *Manager) string {
				id := submit(t, m, synthSpec(slowIters))
				waitProgress(t, m, id)
				if _, err := m.Cancel(id); err != nil {
					t.Fatal(err)
				}
				waitState(t, m, id, StateCancelled)
				waitIdle(t, m)
				return id
			},
			state: StateCancelled, errPfx: "cancelled", cache: "miss", disk: StateCancelled, stamps: "srf",
			delta: map[string]int64{"submitted": 1, "cancelled": 1, "misses": 1},
		},
		{
			name: "drain interrupt",
			drive: func(t *testing.T, m *Manager) string {
				id := submit(t, m, synthSpec(slowIters))
				interruptPast(t, m, id, 1)
				return id
			},
			state: StateCancelled, errPfx: "cancelled", cache: "miss", disk: StateInterrupted, stamps: "srf",
			delta:   map[string]int64{"submitted": 1, "interrupted": 1, "misses": 1},
			recover: true,
		},
		{
			name:  "deadline",
			drive: func(t *testing.T, m *Manager) string { return finish(t, m, deadline, StateFailed) },
			state: StateFailed, errPfx: "deadline exceeded", cache: "miss", disk: StateFailed, stamps: "srf",
			delta: map[string]int64{"submitted": 1, "failed": 1, "misses": 1},
		},
		{
			name:  "design fails to build",
			drive: func(t *testing.T, m *Manager) string { return finish(t, m, badDesign, StateFailed) },
			state: StateFailed, errPfx: `design "nope" not in suite`, disk: StateFailed, stamps: "srf",
			delta: map[string]int64{"submitted": 1, "failed": 1},
		},
		{
			name: "run panics",
			drive: func(t *testing.T, m *Manager) string {
				runHook = func(id string) { panic("injected fault in " + id) }
				defer func() { runHook = nil }()
				return finish(t, m, synthSpec(20), StateFailed)
			},
			state: StateFailed, errPfx: "panic: injected fault", disk: StateFailed, stamps: "srf",
			delta: map[string]int64{"submitted": 1, "failed": 1, "panicked": 1},
		},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			t.Cleanup(func() { runHook = nil })
			dir := t.TempDir()
			m, err := OpenManager(Config{Workers: 1, QueueDepth: 4, DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			blocker := ""
			if p.blocker {
				blocker = submit(t, m, synthSpec(slowIters))
				waitProgress(t, m, blocker)
			}
			before := pathCounters(m)
			id := p.drive(t, m)
			after := pathCounters(m)
			for name, b := range before {
				if got, want := after[name]-b, p.delta[name]; got != want {
					t.Errorf("counter %s moved by %d, want %d", name, got, want)
				}
			}

			v, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if v.State != p.state || v.Cache != p.cache {
				t.Errorf("view: state %s, cache %q; want %s, %q", v.State, v.Cache, p.state, p.cache)
			}
			if !strings.HasPrefix(v.Error, p.errPfx) || (p.errPfx == "") != (v.Error == "") {
				t.Errorf("view error %q, want prefix %q", v.Error, p.errPfx)
			}

			if blocker != "" {
				if _, err := m.Cancel(blocker); err != nil {
					t.Fatal(err)
				}
				waitState(t, m, blocker, StateCancelled)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := m.Shutdown(ctx); err != nil && !errors.Is(err, ErrDraining) {
				t.Fatalf("shutdown: %v", err)
			}

			var st PersistedStatus
			if !readJSON(filepath.Join(dir, "jobs", id, "status.json"), &st) {
				t.Fatal("status.json missing or unreadable")
			}
			if st.State != p.disk || stamps(st) != p.stamps || st.Resumes != 0 || st.Cache != p.cache {
				t.Errorf("status.json: state %s, stamps %q, resumes %d, cache %q; want %s, %q, 0, %q",
					st.State, stamps(st), st.Resumes, st.Cache, p.disk, p.stamps, p.cache)
			}

			m2, err := OpenManager(Config{Workers: 1, QueueDepth: 4, DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			recovered := m2.Telemetry().JobsRecovered.Value()
			v2, err := m2.Get(id)
			expired, cancel2 := context.WithDeadline(context.Background(), time.Now())
			defer cancel2()
			m2.Shutdown(expired) //nolint:errcheck // stops a resumed run
			if err != nil {
				t.Fatalf("reopened manager lost the job: %v", err)
			}
			want := "history"
			if p.recover {
				want = "resumed"
			}
			got := fmt.Sprintf("%d recovered, job %s resumes %d", recovered, v2.State, v2.Resumes)
			switch {
			case p.recover && (recovered != 1 || v2.State.Terminal() || v2.Resumes != 1),
				!p.recover && (recovered != 0 || v2.State != p.state || v2.Resumes != 0):
				t.Errorf("reopened: %s; want the job as %s", got, want)
			}
		})
	}
}
