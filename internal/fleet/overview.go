package fleet

import (
	"time"
)

// overviewJobCap bounds the job rows embedded in one overview document so
// the dashboard poll stays one small JSON body even on a coordinator with a
// deep retention history. Non-terminal jobs are always included; terminal
// ones fill whatever room is left, newest first.
const overviewJobCap = 64

// overviewTerminalCap bounds how many recently finished jobs ride along for
// context (the dashboard's "just completed" rows).
const overviewTerminalCap = 16

// WorkerOverview is one worker's row in the fleet overview: liveness and
// heartbeat age from the registry, capacity/queue/cache figures from the
// worker's most recent heartbeat report.
type WorkerOverview struct {
	ID   string `json:"id"`
	URL  string `json:"url"`
	Live bool   `json:"live"`
	// Breaker is the worker's circuit-breaker state: "suspect" when recent
	// coordinator→worker calls keep failing (the worker is deprioritized for
	// dispatch), empty/"live" otherwise.
	Breaker string `json:"breaker,omitempty"`
	// HeartbeatAgeSeconds is how stale the worker's last report is; past the
	// registry TTL the worker is no longer live and its jobs get re-routed.
	HeartbeatAgeSeconds float64 `json:"heartbeat_age_seconds"`
	QueueDepth          int     `json:"queue_depth"`
	QueueCap            int     `json:"queue_cap"`
	Running             int     `json:"running"`
	PlaceWorkers        int     `json:"place_workers"`
	CacheEntries        int64   `json:"cache_entries,omitempty"`
	CacheBytes          int64   `json:"cache_bytes,omitempty"`
	CacheHits           int64   `json:"cache_hits,omitempty"`
	CacheNearHits       int64   `json:"cache_near_hits,omitempty"`
	CacheMisses         int64   `json:"cache_misses,omitempty"`
}

// JobOverview is one job's row: the flattened routing + progress facts a
// dashboard needs, without the full worker JobView payload.
type JobOverview struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Class  string `json:"class"`
	State  string `json:"state"`
	Worker string `json:"worker,omitempty"`
	// Iteration/HPWL/Overflow are the latest reported progress (zero until
	// the first worker sync lands).
	Iteration  int     `json:"iteration,omitempty"`
	HPWL       float64 `json:"hpwl,omitempty"`
	Overflow   float64 `json:"overflow,omitempty"`
	GuardTrips int     `json:"guard_trips,omitempty"`
	Reroutes   int     `json:"reroutes,omitempty"`
	Steals     int     `json:"steals,omitempty"`
	Cache      string  `json:"cache,omitempty"`
}

// CacheOverview aggregates the placement-result cache across every worker's
// heartbeat report.
type CacheOverview struct {
	Entries  int64 `json:"entries"`
	Bytes    int64 `json:"bytes"`
	Hits     int64 `json:"hits"`
	NearHits int64 `json:"near_hits"`
	Misses   int64 `json:"misses"`
}

// Overview is the GET /v1/fleet/overview document: one aggregated snapshot
// of the whole fleet — per-worker liveness/heartbeat age/queue depth,
// per-tenant admission accounting, cache hit rates, routing counters, and
// the active job set — so a dashboard polls a single URL instead of
// scraping every worker's /metrics page.
type Overview struct {
	GeneratedAt time.Time        `json:"generated_at"`
	Workers     []WorkerOverview `json:"workers"`
	WorkersLive int              `json:"workers_live"`
	// Pending is the coordinator-side queue of admitted jobs waiting for
	// fleet capacity.
	Pending  int            `json:"pending"`
	Tenants  []TenantStatus `json:"tenants"`
	Counters Counters       `json:"counters"`
	Cache    CacheOverview  `json:"cache"`
	// JobStates counts every retained job by state (pending, queued,
	// running, done, failed, cancelled).
	JobStates map[string]int `json:"job_states"`
	// Jobs lists every non-terminal job plus the most recently finished
	// ones, in submission order, capped (see TruncatedJobs).
	Jobs []JobOverview `json:"jobs"`
	// TruncatedJobs counts job rows dropped by the embed cap (0 = complete).
	TruncatedJobs int `json:"truncated_jobs,omitempty"`
}

// Overview builds the aggregated fleet snapshot at the coordinator's
// current clock reading.
func (c *Coordinator) Overview() Overview {
	now := c.now()
	ov := Overview{
		GeneratedAt: now,
		Tenants:     c.adm.Snapshot(),
		JobStates:   make(map[string]int),
		Counters:    c.counters(),
	}
	for _, ws := range c.reg.Snapshot() {
		age := now.Sub(ws.LastSeen).Seconds()
		if age < 0 {
			age = 0
		}
		breaker := ""
		if c.brk.Suspect(ws.ID) {
			breaker = BreakerSuspect
		}
		ov.Workers = append(ov.Workers, WorkerOverview{
			ID:                  ws.ID,
			URL:                 ws.URL,
			Live:                now.Sub(ws.LastSeen) <= c.cfg.HeartbeatTTL,
			Breaker:             breaker,
			HeartbeatAgeSeconds: age,
			QueueDepth:          ws.Stats.QueueDepth,
			QueueCap:            ws.Stats.QueueCap,
			Running:             ws.Stats.Running,
			PlaceWorkers:        ws.Stats.PlaceWorkers,
			CacheEntries:        ws.Stats.CacheEntries,
			CacheBytes:          ws.Stats.CacheBytes,
			CacheHits:           ws.Stats.CacheHits,
			CacheNearHits:       ws.Stats.CacheNearHits,
			CacheMisses:         ws.Stats.CacheMisses,
		})
	}
	for _, w := range ov.Workers {
		if w.Live {
			ov.WorkersLive++
		}
		ov.Cache.Entries += w.CacheEntries
		ov.Cache.Bytes += w.CacheBytes
		ov.Cache.Hits += w.CacheHits
		ov.Cache.NearHits += w.CacheNearHits
		ov.Cache.Misses += w.CacheMisses
	}

	c.mu.Lock()
	ov.Pending = len(c.pending)
	// Walk newest-first so the caps keep the most recent activity, then
	// reverse back into submission order.
	var rows []JobOverview
	terminal := 0
	for i := len(c.order) - 1; i >= 0; i-- {
		j := c.order[i]
		ov.JobStates[j.state]++
		if len(rows) >= overviewJobCap || (j.terminal && terminal >= overviewTerminalCap) {
			ov.TruncatedJobs++
			continue
		}
		if j.terminal {
			terminal++
		}
		row := JobOverview{
			ID:       j.id,
			Tenant:   j.tenant,
			Class:    j.class.String(),
			State:    j.state,
			Worker:   j.worker,
			Reroutes: j.reroutes,
			Steals:   j.steals,
		}
		if v := j.last; v != nil {
			row.Cache = v.Cache
			if v.Progress != nil {
				row.Iteration = v.Progress.Iteration
				row.HPWL = v.Progress.HPWL
				row.Overflow = v.Progress.Overflow
			}
			if v.Guard != nil {
				row.GuardTrips = v.Guard.Trips
			}
			if v.Result != nil {
				// Finished jobs report their final quality even after the
				// live progress block is gone.
				row.HPWL = v.Result.GPWL
				row.Overflow = v.Result.Overflow
				row.Iteration = v.Result.GPIters
			}
		}
		rows = append(rows, row)
	}
	c.mu.Unlock()
	for i, k := 0, len(rows)-1; i < k; i, k = i+1, k-1 {
		rows[i], rows[k] = rows[k], rows[i]
	}
	ov.Jobs = rows
	return ov
}
