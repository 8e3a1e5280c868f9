package service

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/placer"
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateInterrupted marks a job whose run was stopped by a daemon
	// shutdown with its latest snapshot persisted. It appears only in the
	// durable store: on the next boot the job is re-enqueued as a resume.
	StateInterrupted State = "interrupted"
)

// Terminal reports whether the state is final. Interrupted is deliberately
// non-terminal: it is the resumable state recovery re-enqueues from.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Progress is the live view of a running job, updated from the placement
// engine's OnIteration hook.
type Progress struct {
	Iteration int     `json:"iteration"`
	Overflow  float64 `json:"overflow"`
	HPWL      float64 `json:"hpwl"`
	Lambda    float64 `json:"lambda,omitempty"`
	Param     float64 `json:"param,omitempty"`
}

// GuardStatus summarizes a job's numerical-health guard activity: how often
// the per-iteration invariants tripped, how many rollbacks replayed from a
// snapshot, and how many divergence episodes closed cleanly.
type GuardStatus struct {
	Trips      int    `json:"trips"`
	Rollbacks  int    `json:"rollbacks"`
	Recoveries int    `json:"recoveries"`
	LastEvent  string `json:"last_event,omitempty"`
}

// JobView is the JSON snapshot served by GET /jobs and GET /jobs/{id}.
type JobView struct {
	ID          string           `json:"id"`
	State       State            `json:"state"`
	Design      string           `json:"design,omitempty"`
	Model       string           `json:"model"`
	SubmittedAt time.Time        `json:"submitted_at"`
	StartedAt   *time.Time       `json:"started_at,omitempty"`
	FinishedAt  *time.Time       `json:"finished_at,omitempty"`
	QueueWait   float64          `json:"queue_wait_seconds,omitempty"`
	RunSeconds  float64          `json:"run_seconds,omitempty"`
	Error       string           `json:"error,omitempty"`
	Progress    *Progress        `json:"progress,omitempty"`
	Result      *core.FlowResult `json:"result,omitempty"`
	// Resumes counts daemon restarts this job survived; a non-zero value
	// means the current run warm-started from a persisted snapshot.
	Resumes int `json:"resumes,omitempty"`
	// Guard is present once the run's numerical-health guard has tripped.
	Guard *GuardStatus `json:"guard,omitempty"`
	// Cache reports how the placement-result cache served this job: "hit"
	// (stored placement returned, no GP loop), "near_hit" (warm start off the
	// parent's placement with a partial release), or "miss" (cold start).
	// Empty when the manager runs without a cache.
	Cache string `json:"cache,omitempty"`
}

// maxTrajectoryPoints bounds the per-job live trajectory buffer; beyond it
// the buffer keeps every other point (repeatedly), preserving shape without
// unbounded growth on very long runs.
const maxTrajectoryPoints = 2048

// trajPoint pairs an engine trajectory point with the job's cumulative
// guard-trip count at the moment it was recorded, so rollbacks are visible
// in the streamed trajectory (the count jumps where the curve rewinds).
type trajPoint struct {
	placer.TrajectoryPoint
	GuardTrips int
}

// job is the manager's internal record. All mutable fields are guarded by
// mu; the context/cancel pair is immutable after creation.
type job struct {
	id   string
	seq  int64
	spec JobSpec

	ctx    context.Context
	cancel context.CancelCauseFunc

	// resume marks a job recovered from the durable store: its run
	// warm-starts from the latest persisted snapshot (if any).
	resume bool

	// persistMu serializes the job's status writes; written is one past the
	// revision last written (see Manager.persist).
	persistMu sync.Mutex
	written   int

	mu sync.Mutex
	// status is everything status.json records. Manager.apply alone changes
	// its state and bumps rev. A drain's interrupted job keeps state
	// interrupted here and reads cancelled (see liveState). Its times are
	// time.Now() readings taken in-process, so Sub between them uses the
	// monotonic clock (except a recovered job's submit time).
	status     PersistedStatus
	rev        int
	progress   Progress
	hasProg    bool
	traj       []trajPoint
	trajStride int // current sampling stride for the live buffer
}

// liveState is the state the manager reports: an interrupted job reads
// cancelled until a later boot resumes it. Call with j.mu held.
func (j *job) liveState() State {
	if j.status.State == StateInterrupted {
		return StateCancelled
	}
	return j.status.State
}

// view snapshots the job for JSON serialization.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &j.status
	v := JobView{
		ID:          j.id,
		State:       j.liveState(),
		Design:      st.Design,
		Model:       st.Model,
		SubmittedAt: st.SubmittedAt,
		Error:       st.Error,
		Result:      st.Result,
		Resumes:     st.Resumes,
		Cache:       st.Cache,
	}
	if !st.StartedAt.IsZero() {
		t := st.StartedAt
		v.StartedAt = &t
		v.QueueWait = st.StartedAt.Sub(st.SubmittedAt).Seconds()
	}
	if !st.FinishedAt.IsZero() {
		t := st.FinishedAt
		v.FinishedAt = &t
		if !st.StartedAt.IsZero() { // cancelled-while-queued jobs never ran
			v.RunSeconds = st.FinishedAt.Sub(st.StartedAt).Seconds()
		}
	} else if st.State == StateRunning {
		v.RunSeconds = time.Since(st.StartedAt).Seconds()
	}
	if j.hasProg {
		p := j.progress
		v.Progress = &p
	}
	v.Guard = st.guardCopy()
	return v
}

// trajectoryAfter returns a copy of the buffered points with Iter strictly
// greater than after, plus whether the job is terminal. Iter values are
// ascending, so a binary search finds the resume position.
func (j *job) trajectoryAfter(after int) ([]trajPoint, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	lo, hi := 0, len(j.traj)
	for lo < hi {
		mid := (lo + hi) / 2
		if j.traj[mid].Iter <= after {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	out := make([]trajPoint, len(j.traj)-lo)
	copy(out, j.traj[lo:])
	return out, j.liveState().Terminal()
}

// recordIteration updates live progress and the bounded trajectory buffer.
func (j *job) recordIteration(pt placer.TrajectoryPoint) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress = Progress{
		Iteration: pt.Iter + 1,
		Overflow:  pt.Overflow,
		HPWL:      pt.HPWL,
		Lambda:    pt.Lambda,
		Param:     pt.Param,
	}
	j.hasProg = true
	// A guard rollback rewinds the engine to an earlier iteration. Drop the
	// buffered points from the abandoned future so Iter stays strictly
	// ascending — trajectoryAfter binary-searches on that invariant.
	for len(j.traj) > 0 && j.traj[len(j.traj)-1].Iter >= pt.Iter {
		j.traj = j.traj[:len(j.traj)-1]
	}
	if j.trajStride == 0 {
		j.trajStride = 1
	}
	if pt.Iter%j.trajStride != 0 {
		return
	}
	if len(j.traj) >= maxTrajectoryPoints {
		// Thin in place: drop every other point and double the stride.
		kept := j.traj[:0]
		for i, p := range j.traj {
			if i%2 == 0 {
				kept = append(kept, p)
			}
		}
		j.traj = kept
		j.trajStride *= 2
		if pt.Iter%j.trajStride != 0 {
			return
		}
	}
	trips := 0
	if g := j.status.Guard; g != nil {
		trips = g.Trips
	}
	j.traj = append(j.traj, trajPoint{TrajectoryPoint: pt, GuardTrips: trips})
}

// recordGuardEvent folds one guard event into the job's guard status.
func (j *job) recordGuardEvent(ev guard.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	g := j.status.Guard
	if g == nil {
		g = &GuardStatus{}
		j.status.Guard = g
	}
	switch ev.Kind {
	case guard.EventTrip:
		g.Trips++
	case guard.EventRollback:
		g.Rollbacks++
	case guard.EventRecover:
		g.Recoveries++
	}
	g.LastEvent = string(ev.Kind)
}

// setCacheOutcome records how the placement-result cache served this run.
func (j *job) setCacheOutcome(outcome string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status.Cache = outcome
}

func (j *job) currentState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.liveState()
}
