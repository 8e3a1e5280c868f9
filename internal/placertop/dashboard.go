package placertop

import (
	"fmt"
	"time"

	"repro/internal/service"
)

// WorkerRow is one worker's line in the dashboard: liveness and heartbeat
// age from the coordinator registry plus its last reported load and cache
// traffic.
type WorkerRow struct {
	ID           string
	URL          string
	Live         bool
	Age          time.Duration
	QueueDepth   int
	QueueCap     int
	Running      int
	PlaceWorkers int
	CacheHits    int64
	CacheNear    int64
	CacheMisses  int64
}

// TenantRow is one tenant's line in the admission panel.
type TenantRow struct {
	Name          string
	Class         string
	InFlight      int
	MaxInFlight   int
	Admitted      int64
	RejectedRate  int64
	RejectedQuota int64
}

// JobRow is one job's line: routing facts plus the trajectory tail that
// feeds the convergence sparklines.
type JobRow struct {
	ID         string
	Tenant     string
	Class      string
	State      string
	Worker     string
	Iteration  int
	HPWL       float64
	Overflow   float64
	Lambda     float64
	GuardTrips int
	Reroutes   int
	Steals     int
	// Points is the job's recent trajectory tail (oldest first).
	Points []service.JobTrajectoryPoint
}

// CacheStats aggregates the fleet-wide placement-cache traffic.
type CacheStats struct {
	Hits     int64
	NearHits int64
	Misses   int64
	Entries  int64
	Bytes    int64
}

// Snapshot is everything one dashboard frame renders. It is plain data:
// the collectors (live poller, replay reader) build Snapshots and the
// renderer turns them into frames, so rendering stays a pure function.
type Snapshot struct {
	// Mode is "live" or "replay"; Source names the polled URL or the replay
	// file.
	Mode   string
	Source string

	Workers     []WorkerRow
	WorkersLive int
	Pending     int
	Tenants     []TenantRow
	Jobs        []JobRow
	// TruncatedJobs counts job rows the overview dropped (shown so an
	// operator knows the list is not the whole fleet).
	TruncatedJobs int
	Cache         CacheStats

	// Alerts are the most recent operator-facing events (guard trips,
	// reroutes, steals, worker deaths), newest last.
	Alerts []string

	// Seq is the poll/frame counter shown in the footer — monotonic input
	// state, not wall-clock, so rendering stays deterministic.
	Seq int

	// Replay is set in replay mode and switches the layout to the
	// single-trajectory view.
	Replay *ReplayState
}

// Render draws the snapshot into a fresh w×h frame.
func Render(s *Snapshot, w, h int) *Frame {
	f := NewFrame(w, h)
	if s.Replay != nil {
		renderReplay(f, s)
		return f
	}
	renderFleet(f, s)
	return f
}

// renderFleet lays the fleet view out as vertical bands: header, workers,
// jobs (flexible), tenants, alerts, footer. Bands shrink in a fixed order
// when the terminal is short, so every height renders something sane.
func renderFleet(f *Frame, s *Snapshot) {
	w, h := f.W, f.H
	f.Text(0, 0, "placertop", STitle)
	f.Text(10, 0, "· "+s.Source, SDim)
	right := fmt.Sprintf("workers %d/%d  pending %d  #%d", s.WorkersLive, len(s.Workers), s.Pending, s.Seq)
	f.TextRight(w-1, 0, right, SDefault)

	// Fixed-height bands from both ends; the jobs box absorbs the rest.
	workersH := clampInt(len(s.Workers), 1, 6) + 2
	tenantsH := clampInt(len(s.Tenants), 1, 4) + 2
	alertsH := 4
	footerY := h - 1
	y := 1

	drawWorkers(f, s, 0, y, w, workersH)
	y += workersH

	jobsH := h - 1 - y - tenantsH - alertsH - 1
	if jobsH < 4 { // short terminal: sacrifice alerts, then tenants
		alertsH = 0
		jobsH = h - 1 - y - tenantsH - 1
	}
	if jobsH < 4 {
		tenantsH = 0
		jobsH = h - 1 - y - 1
	}
	if jobsH >= 3 {
		drawJobs(f, s, 0, y, w, jobsH)
		y += jobsH
	}
	if tenantsH > 0 {
		drawTenants(f, s, 0, y, w, tenantsH)
		y += tenantsH
	}
	if alertsH > 0 {
		drawAlerts(f, s, 0, y, w, alertsH)
	}

	cache := fmt.Sprintf("cache hit %d near %d miss %d", s.Cache.Hits, s.Cache.NearHits, s.Cache.Misses)
	f.Text(0, footerY, cache, SDim)
	f.TextRight(w-1, footerY, "q quit", SDim)
}

func drawWorkers(f *Frame, s *Snapshot, x, y, w, h int) {
	f.Box(x, y, w, h, "workers", SDim)
	rows := s.Workers
	if len(rows) > h-2 {
		rows = rows[:h-2]
	}
	for i, wk := range rows {
		ry := y + 1 + i
		st, dot := SGood, "●"
		if !wk.Live {
			st, dot = SBad, "○"
		}
		f.Text(x+2, ry, dot, st)
		f.Text(x+4, ry, pad(wk.ID, 10), SDefault)
		f.Text(x+15, ry, "age "+pad(fmtAge(wk.Age), 6), ageStyle(wk))
		barW := 10
		frac := 0.0
		if wk.QueueCap > 0 {
			frac = float64(wk.QueueDepth) / float64(wk.QueueCap)
		}
		f.Text(x+26, ry, "q ", SDim)
		f.Text(x+28, ry, Bar(frac, barW), queueStyle(frac))
		f.Text(x+28+barW+1, ry, fmt.Sprintf("%d/%d", wk.QueueDepth, wk.QueueCap), SDefault)
		f.Text(x+45, ry, fmt.Sprintf("run %d/%d", wk.Running, wk.PlaceWorkers), SDefault)
		f.TextRight(x+w-3, ry, fmt.Sprintf("cache %d/%d/%d", wk.CacheHits, wk.CacheNear, wk.CacheMisses), SDim)
	}
	if len(s.Workers) == 0 {
		f.Text(x+2, y+1, "no workers reporting", SWarn)
	}
}

func ageStyle(wk WorkerRow) Style {
	if !wk.Live {
		return SBad
	}
	return SDim
}

func queueStyle(frac float64) Style {
	switch {
	case frac >= 0.9:
		return SBad
	case frac >= 0.6:
		return SWarn
	}
	return SAccent
}

func drawJobs(f *Frame, s *Snapshot, x, y, w, h int) {
	title := "jobs"
	if s.TruncatedJobs > 0 {
		title = fmt.Sprintf("jobs (+%d older)", s.TruncatedJobs)
	}
	f.Box(x, y, w, h, title, SDim)
	rows := s.Jobs
	max := h - 2
	if len(rows) > max {
		// Most recent activity matters most; keep the tail.
		rows = rows[len(rows)-max:]
	}
	sparkX := x + 72
	sparkW := clampInt(x+w-2-sparkX, 0, 32)
	for i, j := range rows {
		ry := y + 1 + i
		f.Text(x+2, ry, pad(j.ID, 11), SDefault)
		f.Text(x+14, ry, pad(j.Tenant+"/"+j.Class, 11), SDim)
		f.Text(x+26, ry, pad(j.State, 7), stateStyle(j.State))
		f.Text(x+34, ry, pad(j.Worker, 6), SDim)
		f.Text(x+41, ry, fmt.Sprintf("it %-5d", j.Iteration), SDefault)
		f.Text(x+50, ry, "hp "+pad(fmtSI(j.HPWL), 5), SDefault)
		f.Text(x+59, ry, "ov "+pad(fmtSI(j.Overflow), 5), overflowStyle(j.Overflow))
		if j.GuardTrips > 0 {
			f.Text(x+68, ry, fmt.Sprintf("g%d", j.GuardTrips), SWarn)
		}
		if n := len(j.Points); n > 0 && sparkW >= 4 {
			hp := make([]float64, n)
			for k, p := range j.Points {
				hp[k] = p.HPWL
			}
			f.Text(sparkX, ry, Sparkline(hp, sparkW), SAccent)
		}
	}
	if len(s.Jobs) == 0 {
		f.Text(x+2, y+1, "no jobs", SDim)
	}
}

func stateStyle(state string) Style {
	switch state {
	case "done":
		return SGood
	case "failed", "cancelled":
		return SBad
	case "running":
		return SAccent
	default:
		return SWarn
	}
}

func overflowStyle(ov float64) Style {
	switch {
	case ov > 0.5:
		return SBad
	case ov > 0.1:
		return SWarn
	}
	return SGood
}

func drawTenants(f *Frame, s *Snapshot, x, y, w, h int) {
	f.Box(x, y, w, h, "tenants", SDim)
	rows := s.Tenants
	if len(rows) > h-2 {
		rows = rows[:h-2]
	}
	for i, tn := range rows {
		ry := y + 1 + i
		f.Text(x+2, ry, pad(tn.Name, 12), SDefault)
		f.Text(x+15, ry, pad(tn.Class, 6), SDim)
		quota := fmt.Sprintf("inflight %d", tn.InFlight)
		if tn.MaxInFlight > 0 {
			quota = fmt.Sprintf("inflight %d/%d", tn.InFlight, tn.MaxInFlight)
		}
		f.Text(x+22, ry, pad(quota, 16), SDefault)
		f.Text(x+39, ry, fmt.Sprintf("ok %-5d", tn.Admitted), SGood)
		rejSt := SDim
		if tn.RejectedRate+tn.RejectedQuota > 0 {
			rejSt = SWarn
		}
		f.Text(x+48, ry, fmt.Sprintf("429 rate %d quota %d", tn.RejectedRate, tn.RejectedQuota), rejSt)
	}
	if len(s.Tenants) == 0 {
		f.Text(x+2, y+1, "no tenants seen", SDim)
	}
}

func drawAlerts(f *Frame, s *Snapshot, x, y, w, h int) {
	f.Box(x, y, w, h, "alerts", SDim)
	rows := s.Alerts
	if len(rows) > h-2 {
		rows = rows[len(rows)-(h-2):]
	}
	for i, a := range rows {
		f.Text(x+2, y+1+i, "! "+a, SBad)
	}
	if len(s.Alerts) == 0 {
		f.Text(x+2, y+1, "none", SDim)
	}
}

// pad returns s left-aligned in exactly n runes (truncating with '…').
func pad(s string, n int) string {
	r := []rune(s)
	if len(r) > n {
		if n < 1 {
			return ""
		}
		return string(r[:n-1]) + "…"
	}
	for len(r) < n {
		r = append(r, ' ')
	}
	return string(r)
}
