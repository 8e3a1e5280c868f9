// Package service turns the batch placement flow into a long-running
// placement service: a job manager with a bounded FIFO queue and a worker
// pool executes placement flows (internal/core) with per-job cancellation
// and deadlines, streams live progress through the engine's OnIteration
// hook, and exports metrics via internal/service/telemetry. The HTTP layer
// in http.go exposes it as the placerd JSON API.
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/ecocache"
	"repro/internal/guard"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/placer"
	"repro/internal/service/telemetry"
)

// runHook, when non-nil, is called at the top of every job run with the job
// id. It exists for fault injection in tests (e.g. a hook that panics proves
// the worker's recover isolates the blast radius to one job); production
// builds never set it.
var runHook func(jobID string)

// Errors returned by Submit and Cancel; the HTTP layer maps them to status
// codes (429, 404, 409, 503).
var (
	ErrQueueFull    = errors.New("service: job queue is full")
	ErrDraining     = errors.New("service: manager is shutting down")
	ErrUnknownJob   = errors.New("service: unknown job")
	ErrJobFinished  = errors.New("service: job already finished")
	ErrJobRunning   = errors.New("service: job is already running")
	ErrSpecRejected = errors.New("service: invalid job spec")
)

// errUserCancel is the cancel cause of an explicit Cancel. A drain cancels
// the manager's base context instead, so a run stopped without this cause
// was interrupted and resumes on the next boot.
var errUserCancel = errors.New("service: job cancelled by request")

// Config tunes the job manager.
type Config struct {
	// Workers is the number of concurrent placement workers (default 2).
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submits beyond it fail with ErrQueueFull (default 16).
	QueueDepth int
	// Retention caps how many finished jobs are kept for inspection;
	// older ones are garbage-collected FIFO (default 64).
	Retention int
	// DefaultTimeout bounds jobs that do not set timeout_seconds
	// themselves; 0 means no default deadline.
	DefaultTimeout time.Duration
	// AuxRoot, when non-empty, allows Bookshelf aux jobs restricted to
	// paths under this directory. Empty disables aux jobs.
	AuxRoot string
	// DataDir, when non-empty, makes the manager durable: specs, statuses,
	// and placement snapshots are persisted under this directory, and on
	// the next boot unfinished jobs are recovered and re-enqueued as
	// warm-start resumes (see Store).
	DataDir string
	// ResumeRoot, when non-empty, allows jobs to carry a resume.dir
	// pointing at a checkpoint directory under this root. The fleet
	// coordinator uses it to hand a dead worker's snapshots to a live one
	// on a shared filesystem; empty disables cross-node resume.
	ResumeRoot string
	// CheckpointEvery is the placement snapshot cadence (iterations) for
	// store-backed jobs; default 25. Ignored without DataDir.
	CheckpointEvery int
	// CacheEntries/CacheBytes bound the durable placement-result cache the
	// manager keeps under <DataDir>/ecocache (0 keeps the ecocache package
	// defaults). The cache is the serving fast path: an exact (design hash,
	// config) match returns the stored placement without running the GP loop,
	// and a job with a Parent reference warm-starts off the parent's cached
	// placement. Ignored without DataDir.
	CacheEntries int
	CacheBytes   int64
	// Telemetry receives metrics; nil allocates a private collector.
	Telemetry *telemetry.Collector
	// Log receives the manager's structured log records (job lifecycle
	// events plus the engine's own logging, tagged with the job id). Nil
	// means obs.Nop.
	Log *obs.Logger
	// TraceDir, when non-empty, enables span tracing for every job: each
	// run exports a Chrome trace_event file <TraceDir>/<job-id>.trace.json
	// on completion (loadable in chrome://tracing or Perfetto).
	TraceDir string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Retention <= 0 {
		c.Retention = 64
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 25
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewCollector(obs.EnginePhases()...)
	}
	if c.Log == nil {
		c.Log = obs.Nop
	}
	return c
}

// Manager owns the job queue, worker pool, and job table.
type Manager struct {
	cfg Config
	tel *telemetry.Collector
	log *obs.Logger

	// store is the durable job store; nil for an in-memory-only manager.
	store *Store
	// cache is the durable placement-result cache; nil without a DataDir.
	cache *ecocache.Cache

	queue chan *job

	baseCtx    context.Context // parent of every job context
	baseCancel context.CancelFunc

	wg sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []*job // submission order, for listing and retention GC
	seq      int64
	draining bool
}

// NewManager starts an in-memory manager with cfg.Workers worker
// goroutines. It ignores cfg.DataDir; use OpenManager for a durable one.
func NewManager(cfg Config) *Manager {
	cfg.DataDir = ""
	m, err := OpenManager(cfg)
	if err != nil {
		// Unreachable: without a DataDir nothing in OpenManager can fail.
		panic(err)
	}
	return m
}

// OpenManager starts a manager. With cfg.DataDir set it opens the durable
// job store there, replays finished jobs into the inspectable job table,
// and re-enqueues every unfinished job (queued, running, or interrupted at
// the previous shutdown) as a warm-start resume from its latest snapshot.
func OpenManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	var store *Store
	var persisted []PersistedJob
	if cfg.DataDir != "" {
		var err error
		store, err = OpenStore(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		persisted, err = store.Load()
		if err != nil {
			return nil, err
		}
	}
	// Size the queue so every recovered job fits alongside a full queue of
	// fresh submissions.
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		tel:        cfg.Telemetry,
		log:        cfg.Log,
		store:      store,
		queue:      make(chan *job, cfg.QueueDepth+len(persisted)),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
	}
	if store != nil {
		cache, err := ecocache.Open(filepath.Join(cfg.DataDir, "ecocache"), ecocache.Options{
			MaxEntries: cfg.CacheEntries,
			MaxBytes:   cfg.CacheBytes,
		})
		if err != nil {
			return nil, err
		}
		m.cache = cache
		m.updateCacheGauges()
		m.seq = store.MaxSeq()
		for _, pj := range persisted {
			m.addJob(pj.ID, pj.Spec, pj.Status) //nolint:errcheck // the queue holds every recovered job
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// jobContext builds a job's run context from its spec timeout and the
// manager default. Cancel cancels it with errUserCancel as the cause.
func (m *Manager) jobContext(spec JobSpec) (context.Context, context.CancelCauseFunc) {
	timeout := m.cfg.DefaultTimeout
	if spec.TimeoutSeconds > 0 {
		timeout = time.Duration(spec.TimeoutSeconds * float64(time.Second))
	}
	ctx, cancel := context.WithCancelCause(m.baseCtx)
	if timeout <= 0 {
		return ctx, cancel
	}
	tctx, stop := context.WithTimeout(ctx, timeout)
	return tctx, func(cause error) { cancel(cause); stop() }
}

// addJob is the one constructor of a job. Submit passes no id (addJob
// allocates one) and no status; recovery passes each persisted job, whose
// old deadline, if any, starts afresh. A finished job joins the table as
// history. An unfinished one is queued with its submit time and restart
// count, counted, and written to the store; a recovered one resumes from
// its latest snapshot.
func (m *Manager) addJob(id string, spec JobSpec, st PersistedStatus) (*job, error) {
	j := &job{id: id, seq: jobSeq(id), spec: spec, status: st, cancel: func(error) {}}
	fresh, queued := id == "", !st.State.Terminal()
	if queued {
		j.resume = !fresh
		j.status = PersistedStatus{
			State:       StateQueued,
			Design:      spec.designLabel(),
			SubmittedAt: st.SubmittedAt,
			Resumes:     st.Resumes,
		}
		if j.resume {
			j.status.Resumes++
		}
		if j.status.SubmittedAt.IsZero() {
			j.status.SubmittedAt = time.Now()
		}
		j.ctx, j.cancel = m.jobContext(spec)
	}
	if j.status.Model == "" {
		j.status.Model = spec.modelName()
	}

	m.mu.Lock()
	if queued {
		err := ErrDraining
		if !m.draining {
			if fresh {
				m.seq++
				j.id, j.seq = fmt.Sprintf("job-%06d", m.seq), m.seq
			}
			select {
			case m.queue <- j:
				err = nil
			default:
				err = ErrQueueFull
			}
		}
		if err != nil {
			m.mu.Unlock()
			j.cancel(nil)
			return nil, err
		}
		if fresh {
			m.tel.JobsSubmitted.Inc()
		} else {
			m.tel.JobsRecovered.Inc()
		}
		m.tel.QueueDepth.Add(1)
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	m.mu.Unlock()

	if m.store != nil && queued {
		if fresh {
			m.store.SaveSpec(j.id, spec) //nolint:errcheck // best-effort
		}
		m.persist(j)
	}
	return j, nil
}

// transition is one step of a job's lifecycle (see apply).
type transition struct {
	from, to State
	result   *core.FlowResult // a done run's result
	err      string           // why a run failed or stopped
}

// apply is the one place a job changes state. Under j.mu it checks that j
// is in t.from, stamps the time and counts the transition, all before the
// new state is visible; then it writes status.json. The transitions are
// queued→running, queued→cancelled, and running→done, failed, cancelled or
// interrupted (a drain's cancel: the job reads cancelled until the next
// boot resumes it). A job in any other state is left as it is, with
// ErrJobFinished when it has ended and ErrJobRunning when it has not.
func (m *Manager) apply(j *job, t transition) error {
	j.mu.Lock()
	st := &j.status
	if st.State != t.from {
		ended := j.liveState().Terminal()
		j.mu.Unlock()
		if ended {
			return ErrJobFinished
		}
		return ErrJobRunning
	}
	now := time.Now()
	if t.from == StateQueued {
		m.tel.QueueDepth.Add(-1)
	} else {
		m.tel.JobsRunning.Add(-1)
	}
	switch t.to {
	case StateRunning:
		m.tel.JobsRunning.Add(1)
		m.tel.QueueSeconds.Observe(now.Sub(st.SubmittedAt).Seconds())
	case StateDone:
		m.tel.JobsDone.Inc()
		m.tel.LastHPWL.Set(t.result.DPWL)
		m.tel.LastOverflow.Set(t.result.Overflow)
	case StateFailed:
		m.tel.JobsFailed.Inc()
	case StateCancelled:
		m.tel.JobsCancelled.Inc()
	case StateInterrupted:
		m.tel.JobsInterrupted.Inc()
	}
	if t.to == StateRunning {
		st.StartedAt = now
	} else {
		st.FinishedAt, st.Result, st.Error = now, t.result, t.err
	}
	st.State = t.to
	j.rev++
	j.mu.Unlock()
	m.persist(j)
	return nil
}

// persist writes j's status to the store (no-op without one). A job's
// writes are serialized, each snapshots the job as it runs and skips a
// revision already written, so status.json only moves forward and holds
// each state once. Best-effort by design: a failed status write must not
// take down a running placement.
func (m *Manager) persist(j *job) {
	if m.store == nil {
		return
	}
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	j.mu.Lock()
	st, rev := j.status, j.rev
	j.mu.Unlock()
	if rev < j.written {
		return
	}
	j.written = rev + 1
	st.Guard = st.guardCopy()
	m.store.SaveStatus(j.id, st) //nolint:errcheck // best-effort
}

// Telemetry returns the manager's metrics collector.
func (m *Manager) Telemetry() *telemetry.Collector { return m.tel }

// Submit validates the spec and enqueues a job, returning its snapshot.
// Fails fast with ErrQueueFull when the queue is at capacity and
// ErrDraining after Shutdown has begun.
func (m *Manager) Submit(spec JobSpec) (JobView, error) {
	err := spec.Validate(m.cfg.AuxRoot)
	if err == nil {
		err = spec.validateResumeDir(m.cfg.ResumeRoot)
	}
	if err != nil {
		m.tel.JobsRejected.Inc()
		return JobView{}, fmt.Errorf("%w: %v", ErrSpecRejected, err)
	}
	j, err := m.addJob("", spec, PersistedStatus{})
	if err != nil {
		m.tel.JobsRejected.Inc()
		return JobView{}, err
	}
	return j.view(), nil
}

// Store returns the durable job store, or nil for an in-memory manager.
func (m *Manager) Store() *Store { return m.store }

// Get returns the snapshot of one job.
func (m *Manager) Get(id string) (JobView, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobView{}, ErrUnknownJob
	}
	return j.view(), nil
}

// TrajectoryAfter returns the job's trajectory points with Iter > after
// (pass after = -1 for everything), plus whether the job has reached a
// terminal state. The streaming trajectory endpoint polls this: filtering by
// the monotonic Iter field stays correct even when the live buffer thins
// itself in place (which shifts slice indices).
func (m *Manager) TrajectoryAfter(id string, after int) ([]JobTrajectoryPoint, bool, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, false, ErrUnknownJob
	}
	pts, terminal := j.trajectoryAfter(after)
	out := make([]JobTrajectoryPoint, len(pts))
	for i, p := range pts {
		out[i] = JobTrajectoryPoint{
			Iter: p.Iter, Overflow: p.Overflow, HPWL: p.HPWL,
			Objective: p.Objective, Param: p.Param, Lambda: p.Lambda,
			GuardTrips: p.GuardTrips,
		}
	}
	return out, terminal, nil
}

// JobTrajectoryPoint is the JSON form of placer.TrajectoryPoint.
type JobTrajectoryPoint struct {
	Iter      int     `json:"iter"`
	Overflow  float64 `json:"overflow"`
	HPWL      float64 `json:"hpwl"`
	Objective float64 `json:"objective"`
	Param     float64 `json:"param"`
	Lambda    float64 `json:"lambda"`
	// GuardTrips is the cumulative guard-trip count when the point was
	// recorded; a jump marks where the run rolled back and replayed.
	GuardTrips int `json:"guard_trips,omitempty"`
}

// List returns snapshots of all retained jobs in submission order.
func (m *Manager) List() []JobView {
	m.mu.Lock()
	jobs := make([]*job, len(m.order))
	copy(jobs, m.order)
	m.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.view()
	}
	return out
}

// Cancel cancels a queued or running job. Queued jobs flip to cancelled
// immediately; running jobs get their context cancelled and transition once
// the engine notices (within one placement iteration).
func (m *Manager) Cancel(id string) (JobView, error) { return m.cancelJob(id, true) }

// CancelQueued cancels a job only while it is still waiting in the queue.
// Unlike Cancel it never touches a running placement: the fleet
// coordinator's work stealer uses it to pull queued jobs off a hot node,
// and a job that started in the meantime answers ErrJobRunning (the steal
// is simply abandoned). Like an explicit cancel, a stolen job stays
// cancelled across a restart (the coordinator re-owns the work).
func (m *Manager) CancelQueued(id string) (JobView, error) { return m.cancelJob(id, false) }

// cancelJob cancels a queued job, and a running one when running is set.
// apply's state check closes the race with a worker starting the job.
func (m *Manager) cancelJob(id string, running bool) (JobView, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobView{}, ErrUnknownJob
	}
	err := m.apply(j, transition{from: StateQueued, to: StateCancelled})
	switch {
	case err == nil:
		j.cancel(errUserCancel) // the worker skips it when it leaves the queue
		m.pruneFinished()
	case running && errors.Is(err, ErrJobRunning):
		j.cancel(errUserCancel) // run records the cancel
		err = nil
	}
	return j.view(), err
}

// ManagerStats is the capacity/load report a worker sends the fleet
// coordinator with every heartbeat.
type ManagerStats struct {
	// PlaceWorkers is the size of the placement worker pool (how many jobs
	// can run concurrently).
	PlaceWorkers int `json:"place_workers"`
	// QueueCap is the configured bound on waiting jobs.
	QueueCap int `json:"queue_cap"`
	// QueueDepth and Running are the live counts.
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`
	// Placement-result cache footprint and cumulative outcome counts
	// (zero-valued on managers running without a cache).
	CacheEntries  int64 `json:"cache_entries,omitempty"`
	CacheBytes    int64 `json:"cache_bytes,omitempty"`
	CacheHits     int64 `json:"cache_hits,omitempty"`
	CacheNearHits int64 `json:"cache_near_hits,omitempty"`
	CacheMisses   int64 `json:"cache_misses,omitempty"`
}

// Stats snapshots the manager's capacity and current load.
func (m *Manager) Stats() ManagerStats {
	return ManagerStats{
		PlaceWorkers:  m.cfg.Workers,
		QueueCap:      m.cfg.QueueDepth,
		QueueDepth:    int(m.tel.QueueDepth.Value()),
		Running:       int(m.tel.JobsRunning.Value()),
		CacheEntries:  m.tel.CacheEntries.Value(),
		CacheBytes:    m.tel.CacheBytes.Value(),
		CacheHits:     m.tel.CacheHits.Value(),
		CacheNearHits: m.tel.CacheNearHits.Value(),
		CacheMisses:   m.tel.CacheMisses.Value(),
	}
}

// worker consumes the queue until Shutdown closes it.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		if m.apply(j, transition{from: StateQueued, to: StateRunning}) != nil {
			continue // cancelled while queued
		}
		m.run(j)
		j.cancel(nil) // release the context's timer and its place in the base context
		m.pruneFinished()
	}
}

// jobObserver builds the observability bundle for one job run: a logger
// tagged with the job id, a tracer when TraceDir is set, and a metrics
// registry whose latency sinks feed the shared Prometheus histograms.
func (m *Manager) jobObserver(j *job) *obs.Observer {
	met := obs.NewMetrics()
	met.OnIteration = m.tel.IterationSeconds.Observe
	met.OnPhase = m.tel.ObservePhase
	o := &obs.Observer{
		Log:     m.log.With("job", j.id),
		Metrics: met,
	}
	if m.cfg.TraceDir != "" {
		o.Trace = obs.NewTracer()
	}
	return o
}

// exportTrace writes a finished job's trace file (best-effort: a failed
// export is logged, never fails the job).
func (m *Manager) exportTrace(j *job, t *obs.Tracer) {
	if t == nil {
		return
	}
	path := filepath.Join(m.cfg.TraceDir, j.id+".trace.json")
	if err := os.MkdirAll(m.cfg.TraceDir, 0o755); err != nil {
		m.log.Warn("trace export failed", "job", j.id, "err", err)
		return
	}
	f, err := os.Create(path)
	if err == nil {
		err = t.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		m.log.Warn("trace export failed", "job", j.id, "err", err)
		return
	}
	m.log.Debug("trace exported", "job", j.id, "path", path, "spans", len(t.Events()), "dropped", t.Dropped())
}

// run executes one job's placement flow and records its terminal state. A
// panic anywhere in the flow (engine bug, poisoned input, injected fault) is
// recovered here: the job fails with the stack in its status, the worker
// survives, and the daemon keeps serving every other job.
func (m *Manager) run(j *job) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		m.tel.JobsPanicked.Inc()
		m.apply(j, transition{from: StateRunning, to: StateFailed, //nolint:errcheck // only run ends a running job
			err: fmt.Sprintf("panic: %v\n%s", r, debug.Stack())})
		m.log.Error("job panicked, worker recovered", "job", j.id, "panic", fmt.Sprint(r))
	}()
	if h := runHook; h != nil {
		h(j.id)
	}
	base, d, err := j.spec.buildDesigns(m.cfg.AuxRoot)
	if err != nil {
		m.log.Warn("job rejected: bad design", "job", j.id, "err", err)
		m.apply(j, transition{from: StateRunning, to: StateFailed, err: err.Error()}) //nolint:errcheck // only run ends a running job
		return
	}
	j.mu.Lock()
	j.status.Design = d.Name
	resumes := j.status.Resumes
	j.mu.Unlock()

	// Consult the placement-result cache: an exact (design hash, config
	// fingerprint) match serves the stored placement bit-identically without
	// entering the GP loop.
	var cacheKey ecocache.Key
	if m.cache != nil {
		cacheKey = ecocache.Key{Design: d.ContentHash(), Config: j.spec.cacheFingerprint().Key()}
		if cached := m.cache.Get(cacheKey); cached != nil && len(cached.X) == d.NumCells() {
			m.serveCacheHit(j, d, cached)
			return
		}
	}

	cfg := j.spec.flowConfig()
	if m.cache != nil {
		outcome := "miss"
		if j.spec.Parent != "" {
			if ws := m.planNearHit(j, base, d); ws != nil {
				// Near hit: the design now carries the parent's placement
				// (matched cells) with added cells centroid-seeded. Keep those
				// positions and release only the delta's blast region.
				cfg.GP.Freeze = ws.Freeze
				cfg.GP.Init = "keep"
				outcome = "near_hit"
				m.log.Info("job warm-starts from parent", "job", j.id, "parent", j.spec.Parent,
					"released", ws.Released, "frozen", ws.Frozen, "touched_frac", ws.TouchedFrac)
			}
		}
		j.setCacheOutcome(outcome)
		if outcome == "near_hit" {
			m.tel.CacheNearHits.Inc()
		} else {
			m.tel.CacheMisses.Inc()
		}
	}
	cfg.GP.OnIteration = func(pt placer.TrajectoryPoint) bool {
		j.recordIteration(pt)
		m.tel.Iterations.Inc()
		return true
	}
	if gc := cfg.GP.Guard; gc != nil {
		// Surface guard activity on the job (status + trajectory stream) and
		// in the shared Prometheus counters.
		gc.OnEvent = func(ev guard.Event) {
			j.recordGuardEvent(ev)
			switch ev.Kind {
			case guard.EventTrip:
				m.tel.GuardTrips.Inc()
			case guard.EventRollback:
				m.tel.GuardRollbacks.Inc()
			case guard.EventRecover:
				m.tel.GuardRecoveries.Inc()
			}
		}
	}
	o := m.jobObserver(j)
	cfg.GP.Obs = o
	defer m.exportTrace(j, o.Trace)
	m.log.Info("job started", "job", j.id, "design", d.Name, "model", j.spec.modelName(), "resumes", resumes)
	// ResumeDir warm-starts from the newest fingerprint-matching snapshot and
	// cold-starts when none matches, so a changed spec or binary degrades to
	// a fresh run instead of failing the job (the deterministic pipeline
	// makes a matched resume bit-exact).
	if m.store != nil {
		// Durable mode: snapshot periodically into the job's directory, and
		// warm-start a recovered job from it once it holds a snapshot. A
		// directory whose snapshots all fail to decode falls through to the
		// cross-node pointer below.
		dir := m.store.CheckpointDir(j.id)
		cfg.GP.Checkpoint = placer.CheckpointConfig{Every: m.cfg.CheckpointEvery, Dir: dir}
		if j.resume {
			if _, _, err := checkpoint.LoadLatest(dir); err == nil {
				cfg.GP.ResumeDir = dir
			}
		}
	}
	if cfg.GP.ResumeDir == "" && j.spec.Resume != nil {
		// Cross-node handoff: the coordinator re-routed this job here with a
		// pointer at another node's checkpoint directory (shared filesystem).
		cfg.GP.ResumeDir = j.spec.Resume.Dir
	}

	res, err := core.RunFlowContext(j.ctx, d, cfg)
	end := transition{from: StateRunning, to: StateFailed}
	switch {
	case err == nil:
		// Cache the result and count the job before publishing done: a
		// client that sees done and resubmits must hit the cache, and a
		// metrics scrape after done must count the job.
		if m.cache != nil {
			// Store the finished placement so an identical resubmission is an
			// exact hit and an ECO child can warm-start from it. Best-effort:
			// a full disk must not fail the job that just placed.
			m.cache.Put(cacheKey, &checkpoint.PlacementResult{ //nolint:errcheck
				DesignHash: [32]byte(cacheKey.Design),
				ConfigKey:  cacheKey.Config,
				HPWL:       res.DPWL,
				Overflow:   res.Overflow,
				Iterations: res.GPIters,
				Seconds:    res.TotalSeconds,
				X:          append([]float64(nil), d.X...),
				Y:          append([]float64(nil), d.Y...),
			})
			m.updateCacheGauges()
		}
		m.tel.GPSeconds.Observe(res.GPSeconds)
		m.tel.LGSeconds.Observe(res.LGSeconds)
		m.tel.DPSeconds.Observe(res.DPSeconds)
		m.tel.TotalSeconds.Observe(res.TotalSeconds)
		end.to, end.result = StateDone, res
		m.log.Info("job done", "job", j.id, "design", d.Name,
			"hpwl", res.DPWL, "overflow", res.Overflow, "seconds", res.TotalSeconds)
	case errors.Is(err, context.Canceled):
		end.to, end.err = StateCancelled, "cancelled"
		if context.Cause(j.ctx) == errUserCancel {
			m.log.Info("job cancelled", "job", j.id)
		} else {
			// Shutdown drain, not an explicit cancel: the job is interrupted,
			// and the next boot resumes it from the snapshot the engine just
			// wrote on its way out.
			end.to = StateInterrupted
			m.log.Info("job interrupted by drain", "job", j.id)
		}
	case errors.Is(err, context.DeadlineExceeded):
		end.err = "deadline exceeded"
		m.log.Warn("job failed: deadline exceeded", "job", j.id)
	default:
		end.err = err.Error()
		m.log.Warn("job failed", "job", j.id, "err", err)
	}
	m.apply(j, end) //nolint:errcheck // only run ends a running job
}

// serveCacheHit finishes a job straight from the placement-result cache: the
// stored positions are the final placement (bit-identical to the run that
// produced them), so the job reports done without one GP iteration. As in
// run, the counters are updated before done is published.
//
// The entry keeps no capped flag; its overflow against the effective stop
// overflow gives it back. The stopping knobs are in the cache key, so they
// are the ones the run used, and only the iteration cap ends a cached run
// above its target: placerd's iteration hook never stops a run, and a run
// ended by the guard, a cancel or a deadline leaves no entry. As in placer,
// a NaN overflow counts as not below the target.
func (m *Manager) serveCacheHit(j *job, d *netlist.Design, cached *checkpoint.PlacementResult) {
	copy(d.X, cached.X)
	copy(d.Y, cached.Y)
	j.setCacheOutcome("hit")
	m.tel.CacheHits.Inc()
	stop := j.spec.Placer.StopOverflow
	if stop == 0 {
		stop = placer.DefaultStopOverflow
	}
	m.apply(j, transition{from: StateRunning, to: StateDone, result: &core.FlowResult{ //nolint:errcheck // only run ends a running job
		Design:   d.Name,
		Model:    j.spec.modelName(),
		GPWL:     cached.HPWL,
		LGWL:     cached.HPWL,
		DPWL:     cached.HPWL,
		Overflow: cached.Overflow,
		Capped:   !(cached.Overflow < stop),
	}})
	m.log.Info("job served from cache", "job", j.id, "design", d.Name, "hpwl", cached.HPWL)
}

// planNearHit tries to serve job j as an ECO near hit off its parent's cached
// placement: look the placement up under the parent's cache key and plan a
// partial release of the child around the structural delta. The parent
// design is the child's unperturbed base when the two design specs differ
// only in the perturbation, as every ECO resubmission's do; any other parent
// is rebuilt from its persisted spec. Any missing piece — unknown parent,
// uncached placement, oversized delta — returns nil and the job cold-starts;
// the ECO path degrades, it never fails a job.
func (m *Manager) planNearHit(j *job, base, child *netlist.Design) *ecocache.WarmStart {
	parentID := j.spec.Parent
	var parentSpec JobSpec
	ok := false
	m.mu.Lock()
	if pj, found := m.jobs[parentID]; found {
		parentSpec, ok = pj.spec, true
	}
	m.mu.Unlock()
	if !ok && m.store != nil {
		if sp, err := m.store.LoadSpec(parentID); err == nil {
			parentSpec, ok = sp, true
		} else if sp, err := m.store.LoadArchivedSpec(parentID); err == nil {
			// The parent's job record was pruned, but its spec was archived
			// alongside the still-cached placement.
			parentSpec, ok = sp, true
		}
	}
	if !ok {
		m.log.Info("eco parent unknown, cold start", "job", j.id, "parent", parentID)
		return nil
	}
	parentD := base
	unperturbed := j.spec.Design
	unperturbed.Perturb = nil
	if !reflect.DeepEqual(parentSpec.Design, unperturbed) {
		var err error
		if parentD, err = parentSpec.buildDesign(m.cfg.AuxRoot); err != nil {
			m.log.Warn("eco parent design rebuild failed, cold start", "job", j.id, "parent", parentID, "err", err)
			return nil
		}
	}
	key := ecocache.Key{Design: parentD.ContentHash(), Config: parentSpec.cacheFingerprint().Key()}
	parentRes := m.cache.Get(key)
	if parentRes == nil {
		m.log.Info("eco parent not cached, cold start", "job", j.id, "parent", parentID)
		return nil
	}
	ws, reason := ecocache.PlanWarmStart(parentRes, parentD, child, ecocache.WarmStartOptions{})
	if ws == nil {
		m.log.Info("eco near hit rejected, cold start", "job", j.id, "parent", parentID, "reason", reason)
		return nil
	}
	return ws
}

// updateCacheGauges refreshes the cache size gauges (no-op without a cache).
func (m *Manager) updateCacheGauges() {
	if m.cache == nil {
		return
	}
	st := m.cache.Stats()
	m.tel.CacheEntries.Set(int64(st.Entries))
	m.tel.CacheBytes.Set(st.Bytes)
}

// pruneFinished drops the oldest finished jobs beyond the retention cap.
func (m *Manager) pruneFinished() {
	m.mu.Lock()
	defer m.mu.Unlock()
	finished := 0
	for _, j := range m.order {
		if j.currentState().Terminal() {
			finished++
		}
	}
	if finished <= m.cfg.Retention {
		return
	}
	drop := finished - m.cfg.Retention
	kept := m.order[:0]
	archived := false
	for _, j := range m.order {
		if drop > 0 && j.currentState().Terminal() {
			delete(m.jobs, j.id)
			// Drop the job's directory too — except during a drain, when a
			// just-"cancelled" job may be persisted as interrupted and must
			// survive for recovery on the next boot. With a result cache the
			// spec is archived first: the job's cached placement outlives its
			// record, and an ECO child naming this job as parent still needs
			// the spec to rebuild the parent design for the structural diff.
			if m.store != nil && !m.draining {
				if m.cache != nil {
					if m.store.ArchiveSpec(j.id) == nil {
						archived = true
					}
				}
				m.store.Delete(j.id) //nolint:errcheck // best-effort GC
			}
			drop--
			continue
		}
		kept = append(kept, j)
	}
	m.order = kept
	if archived {
		// Archived specs only matter while their placements are cached.
		m.store.PruneSpecArchive(m.cache.Options().MaxEntries)
	}
}

// Shutdown drains the manager: no new submits are accepted, queued and
// running jobs are allowed to finish until ctx expires, after which every
// remaining job is cancelled. Blocks until all workers exit.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return ErrDraining
	}
	m.draining = true
	close(m.queue) // Submit holds mu while sending, so no send can race this
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		m.baseCancel() // cancel every in-flight job, then wait for workers
		<-done
	}
	m.baseCancel()
	return err
}
