package placertop

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
)

// Collector polls a fleet coordinator (preferred) or a single placerd
// worker and folds the responses into dashboard Snapshots. It keeps
// per-job trajectory tails across polls — each poll fetches only the
// points after the last delivered iteration, so tailing N jobs stays a
// handful of tiny requests per refresh.
type Collector struct {
	// Base is the coordinator or worker base URL.
	Base string
	// HTTP serves the polls and trajectory fetches. nil uses a
	// short-timeout default.
	HTTP *http.Client
	// MaxTrajJobs bounds how many active jobs get trajectory tails per poll
	// (default 8) — the sparkline column, not the job table, is capped.
	MaxTrajJobs int
	// TailLen bounds the points retained per job (default 180 ≈ one
	// sparkline at any terminal width).
	TailLen int

	mode     string // "", "fleet", or "worker"
	seq      int
	tails    map[string][]service.JobTrajectoryPoint
	lastIter map[string]int

	prevGuard map[string]int
	prevMove  map[string]int // reroutes+steals per job
	prevLive  map[string]bool
	alerts    []string
}

const maxAlerts = 8

// NewCollector builds a collector for the given base URL.
func NewCollector(base string) *Collector {
	return &Collector{Base: base}
}

func (c *Collector) http_() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 5 * time.Second}
}

func (c *Collector) init() {
	if c.tails == nil {
		c.tails = make(map[string][]service.JobTrajectoryPoint)
		c.lastIter = make(map[string]int)
		c.prevGuard = make(map[string]int)
		c.prevMove = make(map[string]int)
		c.prevLive = make(map[string]bool)
	}
	if c.MaxTrajJobs == 0 {
		c.MaxTrajJobs = 8
	}
	if c.TailLen == 0 {
		c.TailLen = 180
	}
}

// Snapshot performs one poll and returns the dashboard state. The first
// call probes for the coordinator's overview endpoint and falls back to
// single-worker mode when the base URL is a bare placerd.
func (c *Collector) Snapshot(ctx context.Context) (*Snapshot, error) {
	c.init()
	if c.mode == "" {
		if err := c.detect(ctx); err != nil {
			return nil, err
		}
	}
	var (
		s   *Snapshot
		err error
	)
	switch c.mode {
	case "fleet":
		s, err = c.pollFleet(ctx)
	default:
		s, err = c.pollWorker(ctx)
	}
	if err != nil {
		return nil, err
	}
	c.fetchTails(ctx, s)
	c.deriveAlerts(s)
	c.seq++
	s.Seq = c.seq
	s.Mode = "live"
	s.Source = c.Base
	return s, nil
}

// detect probes GET /v1/fleet/overview: a 200 means a coordinator, a 404
// means a bare worker (which serves /stats instead).
func (c *Collector) detect(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/fleet/overview", nil)
	if err != nil {
		return err
	}
	resp, err := c.http_().Do(req)
	if err != nil {
		return fmt.Errorf("placertop: cannot reach %s: %w", c.Base, err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		c.mode = "fleet"
	} else {
		c.mode = "worker"
	}
	return nil
}

// get sends GET path and returns the body of a 200 response; the caller
// closes it.
func (c *Collector) get(ctx context.Context, path string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http_().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return resp.Body, nil
}

func (c *Collector) getJSON(ctx context.Context, path string, v any) error {
	body, err := c.get(ctx, path)
	if err != nil {
		return err
	}
	defer body.Close()
	return json.NewDecoder(body).Decode(v)
}

// fetchTrajectory returns a job's buffered points with Iter > after in one
// request: ?follow=false makes the worker (or the coordinator's proxy) send
// its current buffer and end the response.
func (c *Collector) fetchTrajectory(ctx context.Context, id string, after int) ([]service.JobTrajectoryPoint, error) {
	body, err := c.get(ctx, "/v1/jobs/"+url.PathEscape(id)+"/trajectory?after="+strconv.Itoa(after)+"&follow=false")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	pts, err := DecodeTrajectory(body)
	if err != nil {
		return nil, err
	}
	// The server filters by ?after already. Keeping only points that ascend
	// past after means a resent point never enters the tail twice.
	fresh := pts[:0]
	for _, p := range pts {
		if p.Iter > after {
			fresh = append(fresh, p)
			after = p.Iter
		}
	}
	return fresh, nil
}

// pollFleet folds one coordinator overview document into a Snapshot.
func (c *Collector) pollFleet(ctx context.Context) (*Snapshot, error) {
	var ov fleet.Overview
	if err := c.getJSON(ctx, "/v1/fleet/overview", &ov); err != nil {
		return nil, err
	}
	s := &Snapshot{
		WorkersLive:   ov.WorkersLive,
		Pending:       ov.Pending,
		TruncatedJobs: ov.TruncatedJobs,
		Cache: CacheStats{
			Hits: ov.Cache.Hits, NearHits: ov.Cache.NearHits, Misses: ov.Cache.Misses,
			Entries: ov.Cache.Entries, Bytes: ov.Cache.Bytes,
		},
	}
	for _, w := range ov.Workers {
		s.Workers = append(s.Workers, WorkerRow{
			ID: w.ID, URL: w.URL, Live: w.Live,
			Age:        time.Duration(w.HeartbeatAgeSeconds * float64(time.Second)),
			QueueDepth: w.QueueDepth, QueueCap: w.QueueCap,
			Running: w.Running, PlaceWorkers: w.PlaceWorkers,
			CacheHits: w.CacheHits, CacheNear: w.CacheNearHits, CacheMisses: w.CacheMisses,
		})
	}
	for _, tn := range ov.Tenants {
		s.Tenants = append(s.Tenants, TenantRow{
			Name: tn.Name, Class: tn.Class,
			InFlight: tn.InFlight, MaxInFlight: tn.MaxInFlight,
			Admitted: tn.Admitted, RejectedRate: tn.RejectedRate, RejectedQuota: tn.RejectedQuota,
		})
	}
	for _, j := range ov.Jobs {
		s.Jobs = append(s.Jobs, JobRow{
			ID: j.ID, Tenant: j.Tenant, Class: j.Class, State: j.State, Worker: j.Worker,
			Iteration: j.Iteration, HPWL: j.HPWL, Overflow: j.Overflow,
			GuardTrips: j.GuardTrips, Reroutes: j.Reroutes, Steals: j.Steals,
		})
	}
	return s, nil
}

// pollWorker builds the same Snapshot from a bare placerd's /stats and
// /jobs endpoints (one synthetic worker row, no tenant panel).
func (c *Collector) pollWorker(ctx context.Context) (*Snapshot, error) {
	var stats service.ManagerStats
	if err := c.getJSON(ctx, "/stats", &stats); err != nil {
		return nil, err
	}
	var list struct {
		Jobs []service.JobView `json:"jobs"`
	}
	if err := c.getJSON(ctx, "/jobs", &list); err != nil {
		return nil, err
	}
	s := &Snapshot{
		WorkersLive: 1,
		Workers: []WorkerRow{{
			ID: "local", URL: c.Base, Live: true,
			QueueDepth: stats.QueueDepth, QueueCap: stats.QueueCap,
			Running: stats.Running, PlaceWorkers: stats.PlaceWorkers,
			CacheHits: stats.CacheHits, CacheNear: stats.CacheNearHits, CacheMisses: stats.CacheMisses,
		}},
		Cache: CacheStats{
			Hits: stats.CacheHits, NearHits: stats.CacheNearHits, Misses: stats.CacheMisses,
			Entries: stats.CacheEntries, Bytes: stats.CacheBytes,
		},
	}
	for _, v := range list.Jobs {
		row := JobRow{ID: v.ID, State: string(v.State), Worker: "local"}
		if v.Progress != nil {
			row.Iteration = v.Progress.Iteration
			row.HPWL = v.Progress.HPWL
			row.Overflow = v.Progress.Overflow
			row.Lambda = v.Progress.Lambda
		}
		if v.Guard != nil {
			row.GuardTrips = v.Guard.Trips
		}
		if v.Result != nil {
			row.Iteration = v.Result.GPIters
			row.HPWL = v.Result.GPWL
			row.Overflow = v.Result.Overflow
		}
		s.Jobs = append(s.Jobs, row)
	}
	return s, nil
}

// fetchTails tops up the trajectory tail of each active job (newest jobs
// first, capped) and attaches the tails to the job rows.
func (c *Collector) fetchTails(ctx context.Context, s *Snapshot) {
	fetched := 0
	for i := len(s.Jobs) - 1; i >= 0; i-- {
		j := &s.Jobs[i]
		if tail, ok := c.tails[j.ID]; ok {
			j.Points = tail
		}
		if fetched >= c.MaxTrajJobs || !trajectoryWorthFetching(j, c.lastIter[j.ID]) {
			continue
		}
		fetched++
		after := c.lastIter[j.ID] - 1 // lastIter is 0 before the first point
		pts, err := c.fetchTrajectory(ctx, j.ID, after)
		if err != nil || len(pts) == 0 {
			continue // pending job, pruned job, or transient proxy failure
		}
		tail := append(c.tails[j.ID], pts...)
		if len(tail) > c.TailLen {
			tail = tail[len(tail)-c.TailLen:]
		}
		c.tails[j.ID] = tail
		c.lastIter[j.ID] = tail[len(tail)-1].Iter + 1
		j.Points = tail
	}
}

// trajectoryWorthFetching skips jobs that cannot yield new points: still
// pending (no worker), or terminal with a tail already drained past the
// final iteration.
func trajectoryWorthFetching(j *JobRow, nextIter int) bool {
	switch j.State {
	case "pending", "queued":
		return false
	case "running":
		return true
	default: // terminal: one final drain, then stop once the tail caught up
		return nextIter <= j.Iteration
	}
}

// deriveAlerts compares the poll against the previous one and appends
// operator-facing events: guard trips, job moves (reroute/steal), workers
// going dark. Alerts accumulate newest-last, bounded.
func (c *Collector) deriveAlerts(s *Snapshot) {
	for i := range s.Jobs {
		j := &s.Jobs[i]
		if prev, seen := c.prevGuard[j.ID]; seen && j.GuardTrips > prev {
			c.push(fmt.Sprintf("guard trip on %s (total %d)", j.ID, j.GuardTrips))
		} else if !seen && j.GuardTrips > 0 {
			c.push(fmt.Sprintf("guard trip on %s (total %d)", j.ID, j.GuardTrips))
		}
		c.prevGuard[j.ID] = j.GuardTrips
		if move := j.Reroutes + j.Steals; move > c.prevMove[j.ID] {
			c.push(fmt.Sprintf("%s moved to %s (reroutes %d, steals %d)", j.ID, j.Worker, j.Reroutes, j.Steals))
			c.prevMove[j.ID] = move
		}
	}
	for _, w := range s.Workers {
		if prev, seen := c.prevLive[w.ID]; seen && prev && !w.Live {
			c.push(fmt.Sprintf("worker %s stopped heartbeating (age %s)", w.ID, fmtAge(w.Age)))
		}
		c.prevLive[w.ID] = w.Live
	}
	s.Alerts = append([]string(nil), c.alerts...)
}

func (c *Collector) push(alert string) {
	c.alerts = append(c.alerts, alert)
	if len(c.alerts) > maxAlerts {
		c.alerts = c.alerts[len(c.alerts)-maxAlerts:]
	}
}
