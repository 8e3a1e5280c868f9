package fleet

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/service"
	"repro/internal/service/telemetry"
)

// ErrSaturated means admission passed but no worker could take the job and
// the coordinator's pending queue is full. Mapped to 429 + Retry-After.
var ErrSaturated = errors.New("fleet: cluster is saturated")

// ErrUnknownJob mirrors the worker-side error for the fleet job table.
var ErrUnknownJob = errors.New("fleet: unknown job")

// Config tunes a Coordinator.
type Config struct {
	// HeartbeatTTL is how long a worker stays live without a heartbeat
	// (default 5s). Expiry is the failure detector: jobs on an expired
	// worker are re-routed.
	HeartbeatTTL time.Duration
	// PendingLimit bounds the coordinator-side queue of admitted jobs
	// waiting for fleet capacity (default 256).
	PendingLimit int
	// Retention caps retained terminal job records (default 1024).
	Retention int
	// Admission is the multi-tenant admission controller; nil admits
	// everything (a zero-valued policy for every tenant).
	Admission *Admission
	// Telemetry receives fleet metrics; nil allocates a private collector.
	Telemetry *telemetry.FleetCollector
	// Log receives coordinator events; nil means obs.Nop.
	Log *obs.Logger
	// Client is the HTTP client for worker control calls (submit, status,
	// cancel); nil uses a 10-second-timeout default. Trajectory streaming
	// uses a separate timeout-free client bound to the request context.
	Client *http.Client
	// Now is the clock (tests inject a fake one); nil uses time.Now.
	Now func() time.Time
	// JournalPath, when non-empty, enables the crash-safe job journal: every
	// accepted/assigned/rerouted/terminal transition is appended (CRC-framed,
	// fsynced) and replayed at boot, so a coordinator restart loses no
	// accepted job. Empty keeps the coordinator purely in-memory.
	JournalPath string
	// Sleep is the dispatch-retry sleeper; nil uses time.Sleep (tests
	// inject a no-op so retries don't slow the suite).
	Sleep func(time.Duration)
}

const (
	// dispatchRetries is how many extra attempts a retryable dispatch error
	// gets on the same worker before moving to the next candidate.
	dispatchRetries = 1
	// dispatchBackoff is the base delay of the jittered backoff between
	// dispatch retries.
	dispatchBackoff = 50 * time.Millisecond
	// breakerThreshold is how many consecutive failed calls trip a worker's
	// circuit breaker to "suspect".
	breakerThreshold = 3
	// breakerReset is how long a suspect worker stays suspect with no
	// further failures before decaying back to live.
	breakerReset = 30 * time.Second
)

// fleetJob is the coordinator's record of one submitted job. All mutable
// fields are guarded by the coordinator's mu. The journaled ones — the
// worker binding (worker, workerURL, remoteID, dataDir), the reroute and
// steal counts, the resume pointer in spec and the terminal flag — are
// written only by applyLocked. Cancel, Get and DeregisterWorker run beside
// the maintenance tick, so a job's binding can change between two critical
// sections: a worker's answer is folded in only while the binding it came
// from still holds.
type fleetJob struct {
	id        string
	tenant    string
	class     Class
	spec      service.JobSpec
	key       uint64
	submitted time.Time
	idemKey   string // client idempotency key ("" = none)

	state       string // "pending" until assigned, then the worker-reported state
	worker      string
	workerURL   string
	remoteID    string
	dataDir     string // assigned worker's durable store root (journaled for post-crash reroute)
	last        *service.JobView
	affinityHit bool
	reroutes    int
	steals      int
	terminal    bool
	released    bool
	// recovered marks a journal-replayed assignment awaiting reconciliation:
	// re-adopted when its worker re-heartbeats, re-routed after the grace.
	recovered bool
	// stealing marks a steal's conditional cancel in flight: the source's
	// copy is going away, so its state is not folded in, and a Cancel
	// meanwhile dies in the coordinator (the steal then revokes any copy
	// the source kept).
	stealing bool
}

// JobView is the fleet API's JSON snapshot of one job: coordinator routing
// metadata plus the latest proxied worker view.
type JobView struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Class  string `json:"class"`
	// State is "pending" while the job waits for fleet capacity, then the
	// worker-reported lifecycle state (queued, running, done, ...).
	State    string `json:"state"`
	Worker   string `json:"worker,omitempty"`
	RemoteID string `json:"remote_id,omitempty"`
	// AffinityHit marks a submission routed to the worker already holding
	// checkpoints for the same spec.
	AffinityHit bool `json:"affinity_hit,omitempty"`
	// Reroutes counts moves off dead workers; Steals counts queue steals.
	Reroutes int `json:"reroutes,omitempty"`
	Steals   int `json:"steals,omitempty"`
	// Recovered marks a job reconstructed from the journal after a
	// coordinator restart and not yet reconciled with its worker.
	Recovered   bool             `json:"recovered,omitempty"`
	SubmittedAt time.Time        `json:"submitted_at"`
	Job         *service.JobView `json:"job,omitempty"`
}

// Coordinator owns the fleet: worker registry, router state, admission
// controller, and the job table mapping fleet job IDs to worker-local ones.
type Coordinator struct {
	cfg      Config
	reg      *Registry
	aff      *Affinity
	adm      *Admission
	tel      *telemetry.FleetCollector
	log      *obs.Logger
	client   *http.Client
	stream   *http.Client
	now      func() time.Time
	sleep    func(time.Duration)
	brk      *breakerSet
	journal  *Journal
	bootedAt time.Time
	dseed    atomic.Int64 // dispatch-retry jitter seeds

	mu      sync.Mutex
	jobs    map[string]*fleetJob
	order   []*fleetJob
	pending []*fleetJob
	idem    map[string]string // idempotency key -> fleet job ID
	seq     int64
}

// NewCoordinator builds a coordinator from cfg. With a JournalPath it also
// opens (or creates) the job journal and replays it: terminal jobs come back
// as history, pending jobs re-enter the dispatch queue, and assigned jobs
// wait for their worker to re-heartbeat (re-adoption) or for the recovery
// grace to lapse (re-route through the dead worker's checkpoints).
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.HeartbeatTTL <= 0 {
		cfg.HeartbeatTTL = 5 * time.Second
	}
	if cfg.PendingLimit <= 0 {
		cfg.PendingLimit = 256
	}
	if cfg.Retention <= 0 {
		cfg.Retention = 1024
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewFleetCollector()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Admission == nil {
		cfg.Admission, _ = NewAdmission(TenantConfig{}, nil, cfg.Now) // zero policy never errors
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.Log == nil {
		cfg.Log = obs.Nop
	}
	c := &Coordinator{
		cfg:      cfg,
		reg:      NewRegistry(cfg.HeartbeatTTL),
		aff:      NewAffinity(0),
		adm:      cfg.Admission,
		tel:      cfg.Telemetry,
		log:      cfg.Log,
		client:   cfg.Client,
		stream:   &http.Client{},
		now:      cfg.Now,
		sleep:    cfg.Sleep,
		brk:      newBreakerSet(breakerThreshold, breakerReset, cfg.Now),
		bootedAt: cfg.Now(),
		jobs:     make(map[string]*fleetJob),
		idem:     make(map[string]string),
	}
	if cfg.JournalPath != "" {
		jr, recs, err := openJournal(cfg.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("fleet: open journal: %w", err)
		}
		c.journal = jr
		c.recoverFromJournal(recs)
		// Compact immediately: the replayed history collapses to one
		// snapshot of the retained table. Held under c.mu like maybeCompact
		// (no concurrency exists yet at boot, but the invariant is uniform:
		// snapshot and swap are never separated by an append window).
		c.mu.Lock()
		err = jr.Compact(c.journalSnapshotLocked())
		c.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("fleet: compact journal: %w", err)
		}
	}
	return c, nil
}

// Close releases the journal file handle (the coordinator itself has no
// background state beyond what Run's context owns).
func (c *Coordinator) Close() error {
	if c.journal != nil {
		return c.journal.Close()
	}
	return nil
}

// journalAppend appends one record, nil-safe and never fatal: a failed
// append on a non-accept record degrades durability (logged, counted), not
// availability. Callers holding c.mu may call it; the fsync happens at job
// granularity, far off any per-iteration hot path.
func (c *Coordinator) journalAppend(rec journalRecord) {
	if c.journal == nil {
		return
	}
	if err := c.journal.Append(rec); err != nil {
		c.log.Error("journal append failed", "kind", rec.Kind, "job", rec.Job, "err", err)
		return
	}
	c.tel.JournalRecords.Inc()
}

// applyLocked folds one journal record into the job table and returns the
// job it names (nil when the table does not hold it). It is the only code
// that writes a job's worker binding, its reroute and steal counts, its
// resume pointer and its terminal flag: replay calls it once per record,
// and each live transition builds its record and commits it (commitLocked),
// so the table a journal replays to is the table the live coordinator held.
// Any transition also ends a replayed assignment's recovered state. Call
// with c.mu held.
func (c *Coordinator) applyLocked(rec journalRecord) *fleetJob {
	if rec.Kind == recMeta {
		c.seq = max(c.seq, rec.Seq)
		return nil
	}
	j := c.jobs[rec.Job]
	if rec.Kind == recAccepted {
		if j != nil || rec.Job == "" || rec.Spec == nil {
			return j // a duplicate (a compaction raced its append) changes nothing
		}
		class, _ := ParseClass(rec.Class)
		j = &fleetJob{
			id: rec.Job, tenant: rec.Tenant, class: class,
			spec: *rec.Spec, key: rec.Key, submitted: rec.Submitted,
			idemKey: rec.IdemKey, state: "pending",
		}
		c.jobs[j.id] = j
		c.order = append(c.order, j)
		if j.idemKey != "" {
			c.idem[j.idemKey] = j.id
		}
		var n int64
		if _, err := fmt.Sscanf(rec.Job, "fj-%d", &n); err == nil {
			c.seq = max(c.seq, n)
		}
		return j
	}
	if j == nil {
		return nil
	}
	j.recovered = false
	switch rec.Kind {
	case recAssigned:
		j.worker, j.workerURL, j.remoteID, j.dataDir = rec.Worker, rec.WorkerURL, rec.RemoteID, rec.DataDir
		j.state = cmp.Or(rec.State, string(service.StateQueued))
	case recRerouted:
		if rec.ResumeDir != "" {
			j.spec.Resume = &service.ResumeSpec{Dir: rec.ResumeDir}
		}
		j.worker, j.workerURL, j.remoteID, j.dataDir = "", "", "", ""
		j.state = "pending"
		if rec.Steal {
			j.steals++
		} else {
			j.reroutes++
		}
	case recTerminal:
		if rec.State == "rejected" {
			// A 429 or a failed journal append revoked this accept: as far
			// as the client knows it never existed, so its key frees up.
			if j.idemKey != "" {
				delete(c.idem, j.idemKey)
			}
			delete(c.jobs, j.id)
			c.removeFromOrderLocked(j)
			return j
		}
		j.terminal = true
		j.state = cmp.Or(rec.State, j.state)
	}
	return j
}

// commitLocked makes one live transition: it applies the record, then
// journals it (call with c.mu held).
func (c *Coordinator) commitLocked(rec journalRecord) {
	c.applyLocked(rec)
	c.journalAppend(rec)
}

// recoverFromJournal replays the journal into the job table, then sorts the
// surviving jobs: terminal ones are history, unplaced ones re-enter the
// dispatch queue, and placed ones await their worker.
func (c *Coordinator) recoverFromJournal(recs []journalRecord) {
	c.mu.Lock()
	for _, rec := range recs {
		c.applyLocked(rec)
	}
	recovered := 0
	var assigned []*fleetJob
	for _, j := range c.order {
		if j.terminal {
			j.released = true // admission state is fresh after a restart
			continue
		}
		recovered++
		// Re-occupy the tenant's quota slot (without charging its rate
		// bucket) so the fresh admission state matches the recovered load.
		c.adm.Adopt(j.tenant)
		if j.worker == "" {
			// Accepted or rerouted but unplaced: straight back into the
			// dispatch queue. Recovery may exceed PendingLimit — accepted
			// jobs are never dropped at boot.
			c.pending = append(c.pending, j)
		} else {
			j.recovered = true
			assigned = append(assigned, j)
		}
	}
	c.mu.Unlock()
	for _, j := range assigned {
		c.aff.Set(j.key, j.worker)
	}
	c.tel.JournalReplays.Add(int64(len(recs)))
	c.tel.JobsRecovered.Add(int64(recovered))
	if len(recs) > 0 {
		c.log.Info("journal replayed", "records", len(recs),
			"jobs", len(c.jobs), "recovered", recovered, "assigned", len(assigned))
	}
}

// journalSnapshotLocked re-serializes the retained job table as a compact
// journal whose records, applied in order, rebuild the same table: per job
// an accepted record (its spec already carries any resume pointer), one
// rerouted record per reroute and per steal, then assigned and terminal
// records as applicable.
func (c *Coordinator) journalSnapshotLocked() []journalRecord {
	recs := make([]journalRecord, 0, 1+2*len(c.order))
	recs = append(recs, journalRecord{Kind: recMeta, Seq: c.seq})
	for _, j := range c.order {
		spec := j.spec
		recs = append(recs, journalRecord{
			Kind: recAccepted, Job: j.id, Tenant: j.tenant,
			Class: j.class.String(), IdemKey: j.idemKey, Key: j.key,
			Spec: &spec, Submitted: j.submitted,
		})
		for i := 0; i < j.reroutes+j.steals; i++ {
			recs = append(recs, journalRecord{Kind: recRerouted, Job: j.id, Steal: i >= j.reroutes})
		}
		if j.worker != "" {
			recs = append(recs, journalRecord{
				Kind: recAssigned, Job: j.id, Worker: j.worker,
				WorkerURL: j.workerURL, RemoteID: j.remoteID,
				DataDir: j.dataDir, State: j.state,
			})
		}
		if j.terminal {
			recs = append(recs, journalRecord{Kind: recTerminal, Job: j.id, State: j.state})
		}
	}
	return recs
}

// maybeCompact rewrites the journal once the appended history sufficiently
// outgrows the live table, keeping replay cost bounded during long soaks.
//
// The snapshot and the file swap run under one critical section: a record
// fsynced into the old file after the snapshot was taken would be silently
// discarded by the rename, losing an acked transition. Holding c.mu across
// Compact closes that window — every append either runs under c.mu itself
// (serialized after the swap, landing in the new file) or is SubmitIdem's
// accepted record, whose job was inserted into the table under c.mu before
// the append: the snapshot already carries it, and if its append races into
// the new file anyway, the duplicate accepted record is deduped at replay.
// Compaction is rare (history > 4× live table), so the fsync held under the
// lock stays off the hot path.
func (c *Coordinator) maybeCompact() {
	if c.journal == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal.AppendedSinceCompact() <= 4*len(c.order)+64 {
		return
	}
	if err := c.journal.Compact(c.journalSnapshotLocked()); err != nil {
		c.log.Error("journal compaction failed", "err", err)
	}
}

// Telemetry returns the coordinator's metrics collector.
func (c *Coordinator) Telemetry() *telemetry.FleetCollector { return c.tel }

// Registry returns the worker registry (tests and the status endpoint).
func (c *Coordinator) Registry() *Registry { return c.reg }

// Run drives the background maintenance loop (expiry/re-route, state sync,
// pending dispatch, work stealing) every interval until ctx ends.
func (c *Coordinator) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Tick(c.now())
		}
	}
}

// Tick runs one maintenance pass at the given time. Exposed so tests drive
// the fleet deterministically without a background goroutine.
func (c *Coordinator) Tick(now time.Time) {
	c.expireAndReroute(now)
	c.reconcileRecovered(now)
	c.syncWorkers()
	c.dispatchPending()
	c.stealOnce(now)
	c.tel.WorkersLive.Set(int64(len(c.reg.Live(now))))
	c.tel.WorkersSuspect.Set(int64(c.brk.Suspects()))
	c.publishWorkerHealth(now)
	c.mu.Lock()
	c.tel.JobsPending.Set(int64(len(c.pending)))
	c.pruneLocked()
	c.mu.Unlock()
	c.maybeCompact()
}

// reconcileRecovered settles journal-recovered assignments: a worker that
// re-heartbeated re-adopts its jobs (syncWorkers folds the live state), and
// a worker still absent once the recovery grace (two heartbeat TTLs after
// boot) lapses is treated as dead — its jobs re-route with a resume pointer
// into the journaled durable store, the same warm-start handoff as TTL
// expiry.
func (c *Coordinator) reconcileRecovered(now time.Time) {
	graceOver := now.Sub(c.bootedAt) >= 2*c.cfg.HeartbeatTTL
	c.reroute("recovered worker never returned", func(j *fleetJob) (string, bool) {
		if !j.recovered {
			return "", false
		}
		if _, live := c.reg.Get(j.worker, now); live {
			j.recovered = false
			c.log.Info("recovered job re-adopted", "job", j.id, "worker", j.worker)
			return "", false
		}
		return j.dataDir, graceOver
	})
}

// publishWorkerHealth refreshes the per-worker liveness gauges on /metrics
// (heartbeat age, live flag, reported load) from the registry snapshot.
func (c *Coordinator) publishWorkerHealth(now time.Time) {
	snap := c.reg.Snapshot()
	ws := make([]telemetry.WorkerHealth, 0, len(snap))
	for _, s := range snap {
		age := now.Sub(s.LastSeen)
		ws = append(ws, telemetry.WorkerHealth{
			ID:         s.ID,
			AgeSeconds: max(age.Seconds(), 0),
			Live:       age <= c.cfg.HeartbeatTTL,
			Suspect:    c.brk.Suspect(s.ID),
			QueueDepth: s.Stats.QueueDepth,
			Running:    s.Stats.Running,
		})
	}
	c.tel.SetWorkerHealth(ws)
}

// RecordHeartbeat folds one worker report into the registry.
func (c *Coordinator) RecordHeartbeat(hb Heartbeat, now time.Time) error {
	if hb.ID == "" || hb.URL == "" {
		return fmt.Errorf("fleet: heartbeat needs id and url")
	}
	if c.reg.Update(hb, now) {
		c.log.Info("worker registered", "worker", hb.ID, "url", hb.URL,
			"place_workers", hb.Stats.PlaceWorkers, "data_dir", hb.DataDir)
	}
	c.tel.Heartbeats.Inc()
	return nil
}

// Submit admits and routes one job. On rejection it returns a non-zero
// retry-after hint with ErrRateLimited, ErrQuotaExhausted, or ErrSaturated;
// the HTTP layer maps all three to 429 + Retry-After.
func (c *Coordinator) Submit(spec service.JobSpec, tenant string) (JobView, time.Duration, error) {
	return c.SubmitIdem(spec, tenant, "")
}

// SubmitIdem is Submit with a client-supplied idempotency key: a retried
// submit carrying a key the coordinator has already accepted (this boot or,
// via the journal, any previous one) returns the existing job instead of
// creating a duplicate — the property that makes blind submit retries safe
// across coordinator crashes.
func (c *Coordinator) SubmitIdem(spec service.JobSpec, tenant, idemKey string) (JobView, time.Duration, error) {
	if tenant == "" {
		tenant = "default"
	}
	if err := spec.Validate(""); err != nil {
		return JobView{}, 0, fmt.Errorf("%w: %v", service.ErrSpecRejected, err)
	}
	if idemKey != "" {
		// Fast-path dedupe before admission so a retry is not charged
		// against the tenant's rate bucket. The authoritative check runs
		// again under the lock below (two concurrent retries).
		c.mu.Lock()
		j := c.idemJobLocked(idemKey)
		c.mu.Unlock()
		if j != nil {
			return c.view(j), 0, nil
		}
	}
	start := c.now()
	if after, err := c.adm.Admit(tenant); err != nil {
		c.tel.JobsRejected.Inc()
		return JobView{}, after, err
	}
	key := SpecKey(spec)
	if spec.Parent != "" {
		// ECO child: adopt the parent's routing key so rendezvous ranking and
		// the affinity map steer the child at the worker holding the parent's
		// cached placement. The parent reference itself stays fleet-level in
		// the stored spec — it is resolved to the parent's worker-local job ID
		// per dispatch (see dispatchSpec), because that name only means
		// anything on the parent's own worker. An unknown parent changes
		// nothing (the child routes by its own key and cold-starts).
		c.mu.Lock()
		if p, ok := c.jobs[spec.Parent]; ok {
			key = p.key
			c.mu.Unlock()
			c.tel.ParentRoutes.Inc()
		} else {
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	if idemKey != "" {
		if dup := c.idemJobLocked(idemKey); dup != nil {
			c.mu.Unlock()
			c.adm.Release(tenant) // give back the slot this retry charged
			return c.view(dup), 0, nil
		}
	}
	c.seq++
	accept := journalRecord{
		Kind: recAccepted, Job: fmt.Sprintf("fj-%06d", c.seq), Tenant: tenant,
		Class: c.adm.Class(tenant).String(), IdemKey: idemKey, Key: key,
		Spec: &spec, Submitted: start,
	}
	j := c.applyLocked(accept)
	c.mu.Unlock()
	// The accept must be durable before it is acknowledged: a journal that
	// cannot record the job refuses it (the client retries against a
	// coordinator that can uphold the no-loss guarantee).
	if c.journal != nil {
		if err := c.journal.Append(accept); err != nil {
			c.mu.Lock()
			c.revokeLocked(j)
			c.mu.Unlock()
			c.log.Error("journal append failed, refusing job", "err", err)
			return JobView{}, 0, fmt.Errorf("fleet: journal accept: %w", err)
		}
		c.tel.JournalRecords.Inc()
	}
	c.tel.JobsSubmitted.Inc()

	if c.assign(j, nil) {
		c.tel.SubmitSeconds.Observe(c.now().Sub(start).Seconds())
		return c.view(j), 0, nil
	}
	// No worker took it: hold the job in the coordinator's pending queue if
	// there is room, else push back on the client.
	c.mu.Lock()
	parked := len(c.pending) < c.cfg.PendingLimit
	if parked {
		c.pending = append(c.pending, j)
		c.tel.JobsPending.Set(int64(len(c.pending)))
	} else {
		c.revokeLocked(j)
	}
	c.mu.Unlock()
	if !parked {
		return JobView{}, 2 * time.Second, ErrSaturated
	}
	c.log.Info("job pending", "job", j.id, "tenant", tenant)
	return c.view(j), 0, nil
}

// revokeLocked withdraws an accept the client never sees acknowledged (a
// failed journal append or a saturation 429): the "rejected" record drops
// the job and frees its idempotency key, live and at replay, and the
// admission slot goes back. When the journal itself failed this append
// fails too, harmlessly; it matters when a compaction snapshotted the job
// before the revocation, because only a surviving "rejected" record keeps
// the job from resurrecting at replay.
func (c *Coordinator) revokeLocked(j *fleetJob) {
	c.commitLocked(journalRecord{Kind: recTerminal, Job: j.id, State: "rejected"})
	c.releaseLocked(j)
	c.tel.JobsRejected.Inc()
}

// removeFromOrderLocked drops exactly j from the submission-order slice
// (call with c.mu held). Removal is by identity, never by truncating the
// tail: the rollback paths release c.mu between inserting a job and
// deciding to revoke it, so a concurrent Submit may have appended other
// jobs behind it in the meantime.
func (c *Coordinator) removeFromOrderLocked(j *fleetJob) {
	for i, o := range c.order {
		if o == j {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// idemJobLocked resolves an idempotency key to its retained job (nil when
// unknown or already pruned from retention).
func (c *Coordinator) idemJobLocked(idemKey string) *fleetJob {
	if id, ok := c.idem[idemKey]; ok {
		return c.jobs[id]
	}
	return nil
}

// Get returns one job's fleet view, refreshing it from the worker when the
// job is assigned and not yet known-terminal.
func (c *Coordinator) Get(id string) (JobView, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	var worker, url, remote string
	if ok && !j.terminal {
		worker, url, remote = j.worker, j.workerURL, j.remoteID
	}
	c.mu.Unlock()
	if !ok {
		return JobView{}, ErrUnknownJob
	}
	if worker != "" {
		v, err := c.getRemote(url, remote)
		if err != nil {
			c.tel.ProxyErrors.Inc()
		}
		c.mu.Lock()
		if err == nil && j.worker == worker && j.remoteID == remote {
			c.updateFromWorkerLocked(j, v)
		}
		c.mu.Unlock()
	}
	return c.view(j), nil
}

// Cancel cancels a job: an unplaced or mid-steal one dies in the
// coordinator (the dispatch or steal in flight then revokes the copy it
// leaves), a placed one is cancelled on its worker. When that worker call
// fails, the job dies in the coordinator too, journaled, so neither expiry
// nor replay reroutes it, and syncWorkers cancels the copy if the worker
// still lists it live; only a 409, a copy that already finished, leaves the
// job to the sync that folds its real end. When a reroute or steal moves
// the job while the worker call is in flight, that worker's answer is stale
// and the cancel follows the job.
func (c *Coordinator) Cancel(id string) (JobView, error) {
	for {
		c.mu.Lock()
		j, ok := c.jobs[id]
		if !ok {
			c.mu.Unlock()
			return JobView{}, ErrUnknownJob
		}
		if j.terminal || j.worker == "" || j.stealing {
			if !j.terminal {
				c.finishLocked(j, "cancelled")
				c.dropPendingLocked(j)
			}
			c.mu.Unlock()
			return c.view(j), nil
		}
		worker, url, remote := j.worker, j.workerURL, j.remoteID
		c.mu.Unlock()
		v, err := c.cancelRemote(url, remote)
		if err != nil {
			c.tel.ProxyErrors.Inc()
		}
		c.mu.Lock()
		moved := j.worker != worker || j.remoteID != remote
		if !moved {
			switch {
			case err == nil:
				c.updateFromWorkerLocked(j, v)
			case !hasStatus(err, http.StatusConflict):
				c.finishLocked(j, "cancelled")
			}
		}
		c.mu.Unlock()
		if !moved {
			return c.view(j), nil
		}
	}
}

// List returns every retained job in submission order.
func (c *Coordinator) List() []JobView {
	c.mu.Lock()
	jobs := append([]*fleetJob(nil), c.order...)
	c.mu.Unlock()
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = c.view(j)
	}
	return out
}

// Status builds the GET /v1/fleet document.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	pending := len(c.pending)
	c.mu.Unlock()
	return Status{
		Workers:  c.reg.Snapshot(),
		Pending:  pending,
		Counters: c.counters(),
	}
}

// counters reads the routing counters from the fleet telemetry.
func (c *Coordinator) counters() Counters {
	return Counters{
		Submitted:    c.tel.JobsSubmitted.Value(),
		Rejected:     c.tel.JobsRejected.Value(),
		Assigned:     c.tel.JobsAssigned.Value(),
		Rerouted:     c.tel.JobsRerouted.Value(),
		Stolen:       c.tel.JobsStolen.Value(),
		AffinityHits: c.tel.AffinityHits.Value(),
		ParentRoutes: c.tel.ParentRoutes.Value(),
		Heartbeats:   c.tel.Heartbeats.Value(),
		Recovered:    c.tel.JobsRecovered.Value(),
	}
}

// Ready reports whether the fleet can serve: at least one live worker.
func (c *Coordinator) Ready() bool { return len(c.reg.Live(c.now())) > 0 }

// view snapshots a job under the lock.
func (c *Coordinator) view(j *fleetJob) JobView {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := JobView{
		ID: j.id, Tenant: j.tenant, Class: j.class.String(),
		State: j.state, Worker: j.worker, RemoteID: j.remoteID,
		AffinityHit: j.affinityHit, Reroutes: j.reroutes, Steals: j.steals,
		Recovered: j.recovered, SubmittedAt: j.submitted,
	}
	if j.last != nil {
		lv := *j.last
		v.Job = &lv
	}
	return v
}

// releaseLocked returns the job's admission slot exactly once.
func (c *Coordinator) releaseLocked(j *fleetJob) {
	if !j.released {
		j.released = true
		c.adm.Release(j.tenant)
	}
}

// finishLocked moves a job to its terminal state, at most once, and returns
// its admission slot.
func (c *Coordinator) finishLocked(j *fleetJob, state string) {
	if j.terminal {
		return
	}
	c.commitLocked(journalRecord{Kind: recTerminal, Job: j.id, State: state})
	c.releaseLocked(j)
}

// dropPendingLocked removes a job from the pending slice.
func (c *Coordinator) dropPendingLocked(j *fleetJob) {
	for i, p := range c.pending {
		if p == j {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// updateFromWorkerLocked folds a view of the job's current worker copy into
// the record; a terminal worker state finishes the job. A finished job keeps
// the state it finished in, and a copy a steal is cancelling reports nothing.
func (c *Coordinator) updateFromWorkerLocked(j *fleetJob, v service.JobView) {
	if j.terminal || j.stealing {
		return
	}
	j.last = &v
	if v.State.Terminal() {
		c.finishLocked(j, string(v.State))
	} else {
		j.state = string(v.State)
	}
}

// pruneLocked drops the oldest terminal records beyond the retention cap.
func (c *Coordinator) pruneLocked() {
	terminal := 0
	for _, j := range c.order {
		if j.terminal {
			terminal++
		}
	}
	drop := terminal - c.cfg.Retention
	if drop <= 0 {
		return
	}
	kept := c.order[:0]
	for _, j := range c.order {
		if drop > 0 && j.terminal {
			delete(c.jobs, j.id)
			if j.idemKey != "" {
				delete(c.idem, j.idemKey)
			}
			drop--
			continue
		}
		kept = append(kept, j)
	}
	c.order = kept
}

// parentPlacement resolves an ECO child's parent to its current (worker,
// worker-local job ID) placement, or empty strings when the parent is
// unknown or not assigned anywhere.
func (c *Coordinator) parentPlacement(j *fleetJob) (worker, remote string) {
	if j.spec.Parent == "" {
		return "", ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.jobs[j.spec.Parent]; ok {
		return p.worker, p.remoteID
	}
	return "", ""
}

// dispatchSpec renders j's spec for one specific worker. The parent
// reference is worker-local: it is rewritten to the parent's remote job ID
// only when the job is posted to the worker actually holding the parent,
// and dropped everywhere else — a foreign worker could not resolve the
// fleet-level name, and must never resolve it to an unrelated job that
// happens to share the ID in its local table.
func dispatchSpec(j *fleetJob, workerID, pWorker, pRemote string) service.JobSpec {
	spec := j.spec
	if spec.Parent == "" {
		return spec
	}
	if pRemote != "" && workerID == pWorker {
		spec.Parent = pRemote
	} else {
		spec.Parent = ""
	}
	return spec
}

// assign routes one unassigned job: first (a steal's idle target), when
// given, ahead of everyone; then the worker holding its ECO parent (that
// node serves the warm start), then the checkpoint-affinity worker (when
// live), then every live worker in rendezvous order, until one accepts.
// Returns false when nobody can take the job right now. A job cancelled
// while its POST was in flight has the copy it landed revoked.
func (c *Coordinator) assign(j *fleetJob, first *Heartbeat) bool {
	now := c.now()
	live := c.reg.Live(now)
	if len(live) == 0 {
		return false
	}
	pWorker, pRemote := c.parentPlacement(j)
	var cands []Heartbeat
	seen := make(map[string]bool)
	if first != nil {
		seen[first.ID] = true
	}
	add := func(id string) {
		if hb, live := c.reg.Get(id, now); live && !seen[id] {
			cands = append(cands, hb)
			seen[id] = true
		}
	}
	if pWorker != "" {
		add(pWorker)
	}
	affine, _ := c.aff.Get(j.key) // may coincide with pWorker; affinityHit still counts
	if affine != "" {
		add(affine)
	}
	for _, hb := range Rank(j.key, live) {
		if !seen[hb.ID] {
			cands = append(cands, hb)
		}
	}
	// Suspect workers (breaker open) sink to the end of the candidate list:
	// healthy nodes absorb the load, and when only suspects remain each
	// dispatch doubles as a half-open probe that can close the breaker.
	sort.SliceStable(cands, func(a, b int) bool {
		return !c.brk.Suspect(cands[a].ID) && c.brk.Suspect(cands[b].ID)
	})
	if first != nil {
		cands = append([]Heartbeat{*first}, cands...)
	}
	for _, hb := range cands {
		rv, busy, err := c.postJob(hb, dispatchSpec(j, hb.ID, pWorker, pRemote))
		if err != nil {
			if !busy {
				c.tel.ProxyErrors.Inc()
			}
			continue
		}
		c.mu.Lock()
		if j.terminal {
			// Cancelled while the dispatch was in flight: the worker copy
			// is an orphan the fleet no longer tracks — cancel it there
			// rather than let a cancelled job burn a worker slot.
			c.mu.Unlock()
			if _, cerr := c.cancelRemote(hb.URL, rv.ID); cerr != nil {
				c.tel.ProxyErrors.Inc()
			}
			c.log.Info("dispatch raced cancel, revoked on worker",
				"job", j.id, "worker", hb.ID, "remote", rv.ID)
			return true
		}
		c.commitLocked(journalRecord{
			Kind: recAssigned, Job: j.id, Worker: hb.ID, WorkerURL: hb.URL,
			RemoteID: rv.ID, DataDir: hb.DataDir, State: string(rv.State),
		})
		c.updateFromWorkerLocked(j, rv)
		// A steal that lands on its target counts as a steal only.
		stolen := first != nil && hb.ID == first.ID
		hit := hb.ID == affine && !stolen
		if hit {
			j.affinityHit = true
		}
		reroutes := j.reroutes
		c.mu.Unlock()
		c.aff.Set(j.key, hb.ID)
		if hit {
			c.tel.AffinityHits.Inc()
		}
		if stolen {
			c.tel.JobsStolen.Inc()
		} else {
			c.tel.JobsAssigned.Inc()
		}
		c.log.Info("job assigned", "job", j.id, "tenant", j.tenant, "worker", hb.ID,
			"remote", rv.ID, "affinity", hit, "stolen", stolen, "reroutes", reroutes)
		return true
	}
	return false
}

// expireAndReroute removes workers past their heartbeat TTL and re-routes
// their unfinished jobs. When the dead worker advertised a reachable
// DataDir, the resubmitted spec carries a resume pointer at its checkpoint
// directory, so the new node warm-starts from the latest snapshot instead
// of replaying the whole run (fingerprint mismatches cold-start safely).
func (c *Coordinator) expireAndReroute(now time.Time) {
	dead := c.reg.Expire(now)
	if len(dead) == 0 {
		return
	}
	byID := make(map[string]Heartbeat, len(dead))
	for _, hb := range dead {
		byID[hb.ID] = hb
		c.brk.Forget(hb.ID)
		c.log.Warn("worker expired", "worker", hb.ID, "url", hb.URL)
	}
	c.rerouteOffWorkers(byID)
}

// DeregisterWorker handles a worker's graceful goodbye (placerd drain on
// SIGTERM): the worker is removed from the registry immediately — no TTL
// wait — and its jobs re-route through the same checkpoint handoff as
// expiry, warm-starting from whatever the drain persisted.
func (c *Coordinator) DeregisterWorker(id string) bool {
	hb, ok := c.reg.Remove(id)
	if !ok {
		return false
	}
	c.brk.Forget(id)
	c.log.Info("worker deregistered", "worker", id, "url", hb.URL)
	c.rerouteOffWorkers(map[string]Heartbeat{id: hb})
	return true
}

// rerouteOffWorkers moves every unfinished job off the given (gone) workers.
func (c *Coordinator) rerouteOffWorkers(byID map[string]Heartbeat) {
	c.reroute("worker gone", func(j *fleetJob) (string, bool) {
		hb, gone := byID[j.worker]
		return hb.DataDir, gone
	})
}

// reroute moves every placed, unfinished job that pick selects off its
// worker: it commits the cleared binding (with a resume pointer into the
// checkpoints under the store root pick returns, if any), then counts, logs
// and re-homes the job. pick sees each placed job under c.mu.
func (c *Coordinator) reroute(reason string, pick func(j *fleetJob) (dataDir string, move bool)) {
	var moved []*fleetJob
	c.mu.Lock()
	for _, j := range c.order {
		if j.terminal || j.worker == "" {
			continue
		}
		if dataDir, move := pick(j); move {
			rec := journalRecord{Kind: recRerouted, Job: j.id}
			if dataDir != "" && j.remoteID != "" {
				rec.ResumeDir = filepath.Join(dataDir, "jobs", j.remoteID, "checkpoints")
			}
			c.commitLocked(rec)
			c.aff.Drop(j.key) // its checkpoints stay behind on the old worker
			c.log.Warn("rerouting job", "job", j.id, "reason", reason, "resume", j.spec.Resume != nil)
			moved = append(moved, j)
		}
	}
	c.mu.Unlock()
	for _, j := range moved {
		c.tel.JobsRerouted.Inc()
		c.rehome(j, nil)
	}
}

// rehome re-dispatches a job whose binding was just cleared (first, a
// steal's target, tried ahead of the usual order) and parks it in the
// pending queue when nobody takes it — failing it, with its quota slot
// released, only if the queue is full.
func (c *Coordinator) rehome(j *fleetJob, first *Heartbeat) {
	if c.assign(j, first) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) >= c.cfg.PendingLimit {
		c.finishLocked(j, "failed")
		c.log.Warn("pending queue full, dropping job", "job", j.id)
		return
	}
	c.pending = append(c.pending, j)
}

// syncWorkers polls each live worker's job list, folds the states into the
// fleet job table (releasing admission slots on terminal transitions),
// re-routes jobs the worker no longer knows (e.g. a worker that restarted
// without a durable store), and cancels, best effort, a live copy of a job
// the fleet has already ended (a cancel whose worker call failed).
func (c *Coordinator) syncWorkers() {
	now := c.now()
	for _, hb := range c.reg.Live(now) {
		views, err := c.listRemote(hb.URL)
		if err != nil {
			c.tel.ProxyErrors.Inc()
			c.brk.Failure(hb.ID)
			continue
		}
		c.brk.Success(hb.ID)
		byID := make(map[string]service.JobView, len(views))
		for _, v := range views {
			byID[v.ID] = v
		}
		c.reroute("worker forgot job", func(j *fleetJob) (string, bool) {
			if j.worker != hb.ID {
				return "", false
			}
			v, known := byID[j.remoteID]
			if known {
				j.recovered = false
				c.updateFromWorkerLocked(j, v)
			}
			return "", !known
		})
		var orphans []string
		c.mu.Lock()
		for _, j := range c.order {
			if v, known := byID[j.remoteID]; j.terminal && j.worker == hb.ID && known && !v.State.Terminal() {
				orphans = append(orphans, j.remoteID)
			}
		}
		c.mu.Unlock()
		for _, id := range orphans {
			if _, err := c.cancelRemote(hb.URL, id); err != nil {
				c.tel.ProxyErrors.Inc()
			}
		}
	}
}

// dispatchPending retries parked jobs, highest priority class first (FIFO
// within a class). Each job gets one assignment attempt per tick.
func (c *Coordinator) dispatchPending() {
	c.mu.Lock()
	batch := c.pending
	c.pending = nil
	c.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	sort.SliceStable(batch, func(a, b int) bool { return batch[a].class < batch[b].class })
	var still []*fleetJob
	for _, j := range batch {
		c.mu.Lock()
		cancelled := j.terminal // cancelled while pending
		c.mu.Unlock()
		if cancelled {
			continue
		}
		if !c.assign(j, nil) {
			still = append(still, j)
		}
	}
	c.mu.Lock()
	c.pending = append(still, c.pending...)
	c.mu.Unlock()
}

// stealOnce moves queued work from hot workers onto idle ones: for every
// idle worker (free run slots, empty queue) it picks the highest-priority,
// oldest fleet job queued on a busy worker and steals it. Stale heartbeat
// stats are harmless: the worker-side conditional cancel arbitrates races.
func (c *Coordinator) stealOnce(now time.Time) {
	live := c.reg.Live(now)
	var idle []Heartbeat
	hot := make(map[string]bool)
	for _, hb := range live {
		switch {
		case hb.Stats.Running < hb.Stats.PlaceWorkers && hb.Stats.QueueDepth == 0:
			idle = append(idle, hb)
		case hb.Stats.QueueDepth > 0:
			hot[hb.ID] = true
		}
	}
	if len(idle) == 0 || len(hot) == 0 {
		return
	}
	// Steal candidates: fleet jobs sitting in a hot worker's queue, best
	// class first, oldest first.
	c.mu.Lock()
	var cands []*fleetJob
	for _, j := range c.order {
		if !j.terminal && j.worker != "" && hot[j.worker] && j.state == string(service.StateQueued) {
			cands = append(cands, j)
		}
	}
	c.mu.Unlock()
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].class < cands[b].class })
	for i, target := range idle {
		if i == len(cands) {
			return
		}
		c.steal(cands[i], target)
	}
}

// steal moves one queued job onto target. The source's steal-safe
// conditional cancel (?if=queued, which never touches a running placement)
// goes first; when it refuses, the job started, finished or vanished
// meanwhile and the steal is abandoned — all safe outcomes. A cancel that
// lands while it is in flight ends the job in the coordinator (see
// stealing). Once the source has dropped its copy the job runs nowhere: the
// steal is committed as a cleared binding and the job re-dispatches through
// assign with target tried first, so a cancel that lands during that POST
// revokes the target's copy.
func (c *Coordinator) steal(j *fleetJob, target Heartbeat) {
	c.mu.Lock()
	if j.terminal || j.worker == "" {
		c.mu.Unlock()
		return // finished or moved since it was picked
	}
	worker, url, remote := j.worker, j.workerURL, j.remoteID
	j.stealing = true
	c.mu.Unlock()
	ok, err := c.cancelQueuedRemote(url, remote)
	if err != nil {
		c.tel.ProxyErrors.Inc()
	}
	c.mu.Lock()
	j.stealing = false
	cancelled := j.terminal
	take := ok && !cancelled && j.worker == worker && j.remoteID == remote
	if take {
		c.commitLocked(journalRecord{Kind: recRerouted, Job: j.id, Steal: true})
	}
	c.mu.Unlock()
	switch {
	case take:
		c.rehome(j, &target)
	case cancelled && !ok:
		// Cancelled mid-steal while the source kept its copy: revoke it.
		if _, err := c.cancelRemote(url, remote); err != nil {
			c.tel.ProxyErrors.Inc()
		}
	}
}

// --- worker HTTP calls -------------------------------------------------

// postJob submits a spec to a worker, with a short jittered retry on
// retryable failures (the worker may be mid-restart or behind a flaky link)
// and circuit-breaker accounting on the outcome. busy=true flags a 429/503
// (queue full or draining — try the next candidate, not a fault).
func (c *Coordinator) postJob(hb Heartbeat, spec service.JobSpec) (service.JobView, bool, error) {
	var backoff *retry.Backoff
	for attempt := 0; ; attempt++ {
		var v service.JobView
		err := c.workerCall(http.MethodPost, hb.URL+"/jobs", spec, http.StatusAccepted, &v)
		if err == nil {
			c.brk.Success(hb.ID)
			return v, false, nil
		}
		err = fmt.Errorf("fleet: dispatch to worker %s: %w", hb.ID, err)
		if hasStatus(err, http.StatusTooManyRequests, http.StatusServiceUnavailable) {
			return v, true, err // pushback is load, not sickness
		}
		wasSuspect := c.brk.Suspect(hb.ID)
		if c.brk.Failure(hb.ID) && !wasSuspect {
			c.log.Warn("worker circuit breaker opened", "worker", hb.ID, "err", err)
		}
		if attempt >= dispatchRetries || !retry.Retryable(context.Background(), err) {
			return v, false, err
		}
		if backoff == nil {
			backoff = retry.NewBackoff(dispatchBackoff, 0, c.dseed.Add(1))
		}
		c.sleep(backoff.Next())
	}
}

// getRemote fetches one worker job view.
func (c *Coordinator) getRemote(base, id string) (v service.JobView, err error) {
	err = c.workerCall(http.MethodGet, base+"/jobs/"+id, nil, http.StatusOK, &v)
	return v, err
}

// listRemote fetches a worker's whole job table.
func (c *Coordinator) listRemote(base string) ([]service.JobView, error) {
	var out struct {
		Jobs []service.JobView `json:"jobs"`
	}
	err := c.workerCall(http.MethodGet, base+"/jobs", nil, http.StatusOK, &out)
	return out.Jobs, err
}

// cancelRemote cancels a worker job unconditionally.
func (c *Coordinator) cancelRemote(base, id string) (v service.JobView, err error) {
	err = c.workerCall(http.MethodDelete, base+"/jobs/"+id, nil, http.StatusOK, &v)
	return v, err
}

// cancelQueuedRemote is the steal-safe conditional cancel: true only when
// the worker confirmed the job was still queued and is now cancelled; a 409
// (it started) or 404 (it is gone) is a refusal, not an error.
func (c *Coordinator) cancelQueuedRemote(base, id string) (bool, error) {
	err := c.workerCall(http.MethodDelete, base+"/jobs/"+id+"?if=queued", nil, http.StatusOK, nil)
	if hasStatus(err, http.StatusConflict, http.StatusNotFound) {
		return false, nil
	}
	return err == nil, err
}

// workerCall is the coordinator's one worker request: in (when non-nil) is
// sent as the JSON body, a reply with the want status decodes into out (when
// non-nil), and any other status comes back as a *retry.StatusError.
func (c *Coordinator) workerCall(method, url string, in any, want int, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &retry.StatusError{Code: resp.StatusCode, Msg: string(msg)}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// hasStatus reports whether err carries a worker reply with one of codes.
func hasStatus(err error, codes ...int) bool {
	var se *retry.StatusError
	return errors.As(err, &se) && slices.Contains(codes, se.Code)
}
