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
	// disables logging.
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
		m.recover(persisted)
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// recover replays the persisted job table: terminal jobs come back as
// inspectable history, unfinished ones are re-enqueued for a resumed run.
// Runs before the workers start, so no locking subtleties apply.
func (m *Manager) recover(persisted []PersistedJob) {
	for _, pj := range persisted {
		st := pj.Status
		if st.State.Terminal() {
			j := &job{
				id:        pj.ID,
				seq:       jobSeq(pj.ID),
				spec:      pj.Spec,
				cancel:    func() {},
				state:     st.State,
				design:    st.Design,
				model:     st.Model,
				submitted: st.SubmittedAt,
				started:   st.StartedAt,
				finished:  st.FinishedAt,
				err:       st.Error,
				result:    st.Result,
				resumes:   st.Resumes,
				cache:     st.Cache,
			}
			if st.Guard != nil {
				j.guard = *st.Guard
			}
			if j.model == "" {
				j.model = pj.Spec.modelName()
			}
			m.jobs[j.id] = j
			m.order = append(m.order, j)
			continue
		}
		// Unfinished: re-enqueue as a resume. The job context is rebuilt
		// from the spec (the old deadline, if any, starts afresh).
		jctx, cancel := m.jobContext(pj.Spec)
		j := &job{
			id:        pj.ID,
			seq:       jobSeq(pj.ID),
			spec:      pj.Spec,
			ctx:       jctx,
			cancel:    cancel,
			resume:    true,
			state:     StateQueued,
			model:     pj.Spec.modelName(),
			design:    pj.Spec.designLabel(),
			submitted: st.SubmittedAt,
			resumes:   st.Resumes + 1,
		}
		if j.submitted.IsZero() {
			j.submitted = time.Now()
		}
		m.jobs[j.id] = j
		m.order = append(m.order, j)
		m.queue <- j // sized to hold every recovered job
		m.persist(j, "")
		m.tel.JobsRecovered.Inc()
		m.tel.QueueDepth.Add(1)
	}
}

// jobContext builds a job's run context from its spec timeout and the
// manager default.
func (m *Manager) jobContext(spec JobSpec) (context.Context, context.CancelFunc) {
	timeout := m.cfg.DefaultTimeout
	if spec.TimeoutSeconds > 0 {
		timeout = time.Duration(spec.TimeoutSeconds * float64(time.Second))
	}
	if timeout > 0 {
		return context.WithTimeout(m.baseCtx, timeout)
	}
	return context.WithCancel(m.baseCtx)
}

// persist writes a job's current status to the store (no-op without one).
// Best-effort by design: a failed status write must not take down a running
// placement. A job's writes are serialized, each snapshotting the job under
// the lock, so the file ends at the state of the last write.
func (m *Manager) persist(j *job, override State) {
	if m.store == nil {
		return
	}
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	m.store.SaveStatus(j.id, j.persisted(override)) //nolint:errcheck // best-effort
}

// persistQueued is Submit's first status write. The job is already visible
// to the workers, so the write happens only while the job is still queued: a
// job that has moved on is recorded by the write of its own transition, and
// a late queued write must not overwrite a finished or interrupted status.
func (m *Manager) persistQueued(j *job) {
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	if st := j.persisted(""); st.State == StateQueued {
		m.store.SaveStatus(j.id, st) //nolint:errcheck // best-effort
	}
}

// Telemetry returns the manager's metrics collector.
func (m *Manager) Telemetry() *telemetry.Collector { return m.tel }

// Submit validates the spec and enqueues a job, returning its snapshot.
// Fails fast with ErrQueueFull when the queue is at capacity and
// ErrDraining after Shutdown has begun.
func (m *Manager) Submit(spec JobSpec) (JobView, error) {
	if err := spec.Validate(m.cfg.AuxRoot); err != nil {
		m.tel.JobsRejected.Inc()
		return JobView{}, fmt.Errorf("%w: %v", ErrSpecRejected, err)
	}
	if err := spec.validateResumeDir(m.cfg.ResumeRoot); err != nil {
		m.tel.JobsRejected.Inc()
		return JobView{}, fmt.Errorf("%w: %v", ErrSpecRejected, err)
	}

	jctx, cancel := m.jobContext(spec)

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		cancel()
		m.tel.JobsRejected.Inc()
		return JobView{}, ErrDraining
	}
	m.seq++
	j := &job{
		id:        fmt.Sprintf("job-%06d", m.seq),
		seq:       m.seq,
		spec:      spec,
		ctx:       jctx,
		cancel:    cancel,
		state:     StateQueued,
		model:     spec.modelName(),
		design:    spec.designLabel(),
		submitted: time.Now(),
	}
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		cancel()
		m.tel.JobsRejected.Inc()
		return JobView{}, ErrQueueFull
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	m.mu.Unlock()

	if m.store != nil {
		m.store.SaveSpec(j.id, spec) //nolint:errcheck // best-effort
		m.persistQueued(j)
	}
	m.tel.JobsSubmitted.Inc()
	m.tel.QueueDepth.Add(1)
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
func (m *Manager) Cancel(id string) (JobView, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobView{}, ErrUnknownJob
	}
	if j.currentState().Terminal() {
		return j.view(), ErrJobFinished
	}
	j.markUserCancelled()
	if j.markCancelledIfQueued() {
		// The worker will drain it from the queue and skip it.
		j.cancel()
		m.persist(j, "")
		m.tel.QueueDepth.Add(-1)
		m.tel.JobsCancelled.Inc()
		m.pruneFinished()
		return j.view(), nil
	}
	j.cancel() // running: the engine returns ctx.Err() at the next iteration
	return j.view(), nil
}

// CancelQueued cancels a job only while it is still waiting in the queue.
// Unlike Cancel it never touches a running placement: the fleet
// coordinator's work stealer uses it to pull queued jobs off a hot node,
// and a job that started in the meantime answers ErrJobRunning (the steal
// is simply abandoned). The race between checking and cancelling is closed
// by markCancelledIfQueued's internal lock.
func (m *Manager) CancelQueued(id string) (JobView, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobView{}, ErrUnknownJob
	}
	if j.currentState().Terminal() {
		return j.view(), ErrJobFinished
	}
	if !j.markCancelledIfQueued() {
		return j.view(), ErrJobRunning
	}
	// Stolen jobs must stay cancelled across a restart, exactly like an
	// explicit user cancel (the coordinator re-owns the work).
	j.markUserCancelled()
	j.cancel()
	m.persist(j, "")
	m.tel.QueueDepth.Add(-1)
	m.tel.JobsCancelled.Inc()
	m.pruneFinished()
	return j.view(), nil
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
		if !j.markRunning() {
			continue // cancelled while queued
		}
		m.persist(j, "")
		m.tel.QueueDepth.Add(-1)
		m.tel.JobsRunning.Add(1)
		v := j.view()
		m.tel.QueueSeconds.Observe(v.QueueWait)
		m.run(j)
		m.tel.JobsRunning.Add(-1)
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
		j.finish(StateFailed, nil, fmt.Sprintf("panic: %v\n%s", r, debug.Stack()))
		m.persist(j, "")
		m.tel.JobsPanicked.Inc()
		m.tel.JobsFailed.Inc()
		m.log.Error("job panicked, worker recovered", "job", j.id, "panic", fmt.Sprint(r))
	}()
	if h := runHook; h != nil {
		h(j.id)
	}
	base, d, err := j.spec.buildDesigns(m.cfg.AuxRoot)
	if err != nil {
		m.log.Warn("job rejected: bad design", "job", j.id, "err", err)
		j.finish(StateFailed, nil, err.Error())
		m.persist(j, "")
		m.tel.JobsFailed.Inc()
		return
	}
	j.mu.Lock()
	j.design = d.Name
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
	m.log.Info("job started", "job", j.id, "design", d.Name, "model", j.spec.modelName(), "resumes", j.resumes)
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
		m.tel.JobsDone.Inc()
		m.tel.LastHPWL.Set(res.DPWL)
		m.tel.LastOverflow.Set(res.Overflow)
		m.tel.GPSeconds.Observe(res.GPSeconds)
		m.tel.LGSeconds.Observe(res.LGSeconds)
		m.tel.DPSeconds.Observe(res.DPSeconds)
		m.tel.TotalSeconds.Observe(res.TotalSeconds)
		j.finish(StateDone, res, "")
		m.persist(j, "")
		m.log.Info("job done", "job", j.id, "design", d.Name,
			"hpwl", res.DPWL, "overflow", res.Overflow, "seconds", res.TotalSeconds)
	case errors.Is(err, context.Canceled):
		j.finish(StateCancelled, nil, "cancelled")
		if m.isDraining() && !j.wasUserCancelled() {
			// Shutdown drain, not an explicit cancel: persist the job as
			// interrupted so the next boot resumes it from the snapshot
			// the engine just wrote on its way out.
			m.persist(j, StateInterrupted)
			m.tel.JobsInterrupted.Inc()
			m.log.Info("job interrupted by drain", "job", j.id)
		} else {
			m.persist(j, "")
			m.tel.JobsCancelled.Inc()
			m.log.Info("job cancelled", "job", j.id)
		}
	case errors.Is(err, context.DeadlineExceeded):
		j.finish(StateFailed, nil, "deadline exceeded")
		m.persist(j, "")
		m.tel.JobsFailed.Inc()
		m.log.Warn("job failed: deadline exceeded", "job", j.id)
	default:
		j.finish(StateFailed, nil, err.Error())
		m.persist(j, "")
		m.tel.JobsFailed.Inc()
		m.log.Warn("job failed", "job", j.id, "err", err)
	}
}

// serveCacheHit finishes a job straight from the placement-result cache: the
// stored positions are the final placement (bit-identical to the run that
// produced them), so the job reports done without one GP iteration. As in
// run, the counters are updated before done is published.
func (m *Manager) serveCacheHit(j *job, d *netlist.Design, cached *checkpoint.PlacementResult) {
	copy(d.X, cached.X)
	copy(d.Y, cached.Y)
	res := &core.FlowResult{
		Design:   d.Name,
		Model:    j.spec.modelName(),
		GPWL:     cached.HPWL,
		LGWL:     cached.HPWL,
		DPWL:     cached.HPWL,
		Overflow: cached.Overflow,
	}
	j.setCacheOutcome("hit")
	m.tel.CacheHits.Inc()
	m.tel.JobsDone.Inc()
	m.tel.LastHPWL.Set(cached.HPWL)
	m.tel.LastOverflow.Set(cached.Overflow)
	j.finish(StateDone, res, "")
	m.persist(j, "")
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

// isDraining reports whether Shutdown has begun.
func (m *Manager) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
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
		m.store.PruneSpecArchive(m.specArchiveLimit())
	}
}

// specArchiveLimit bounds the pruned-job spec archive to the result cache's
// entry bound: archived specs only matter while the matching placement is
// still cached.
func (m *Manager) specArchiveLimit() int {
	if m.cfg.CacheEntries > 0 {
		return m.cfg.CacheEntries
	}
	return 256 // ecocache's default MaxEntries
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
