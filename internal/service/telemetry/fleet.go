package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// WorkerHealth is one worker's liveness row for the per-worker metric
// series: how stale its last heartbeat is, whether it is still within the
// registry TTL, and its last reported load.
type WorkerHealth struct {
	ID         string
	AgeSeconds float64
	Live       bool
	// Suspect flags an open circuit breaker: the worker heartbeats but its
	// dispatches keep failing, so it is tried last.
	Suspect    bool
	QueueDepth int
	Running    int
}

// FleetCollector aggregates the placement coordinator's metrics: admission
// decisions, routing outcomes (affinity hits, steals, re-routes), worker
// liveness, and submit-path latency. Rendered under the placercoord_ prefix
// so a fleet's coordinator and its workers can be scraped side by side.
type FleetCollector struct {
	// Admission and routing outcomes.
	JobsSubmitted Counter // jobs accepted by admission control
	JobsRejected  Counter // 429s: rate limit, quota, or fleet saturation
	JobsAssigned  Counter // jobs successfully placed on a worker
	JobsRerouted  Counter // jobs moved off a dead worker after heartbeat expiry
	JobsStolen    Counter // queued jobs stolen from a hot node onto an idle one
	AffinityHits  Counter // submissions routed to the node holding their checkpoints
	ParentRoutes  Counter // ECO children routed by their parent's placement location
	ProxyErrors   Counter // failed coordinator -> worker HTTP calls

	// Crash-safety: the coordinator job journal and its boot-time replay.
	JournalRecords Counter // records appended to the job journal
	JournalReplays Counter // records replayed from the journal at boot
	JobsRecovered  Counter // non-terminal jobs reconstructed by replay

	// Worker fleet state.
	Heartbeats     Counter // heartbeat reports received
	WorkersLive    Gauge   // workers currently within their heartbeat TTL
	WorkersSuspect Gauge   // workers with an open circuit breaker

	// Coordinator-side pending queue (jobs admitted but waiting for fleet
	// capacity).
	JobsPending Gauge

	// SubmitSeconds is the coordinator-side latency of placing one job on a
	// worker (admission through worker 202).
	SubmitSeconds *Histogram

	// workers is the latest per-worker health snapshot, refreshed by the
	// coordinator's maintenance tick and rendered as labeled gauges so
	// per-worker liveness is visible on /metrics directly, not just
	// inferable from TTL expiry side effects.
	workersMu sync.Mutex
	workers   []WorkerHealth
}

// NewFleetCollector returns a FleetCollector with default buckets.
func NewFleetCollector() *FleetCollector {
	return &FleetCollector{
		SubmitSeconds: NewHistogram(DurationBuckets()...),
	}
}

// SetWorkerHealth replaces the per-worker health snapshot (sorted by ID for
// a stable exposition order).
func (c *FleetCollector) SetWorkerHealth(ws []WorkerHealth) {
	cp := append([]WorkerHealth(nil), ws...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].ID < cp[j].ID })
	c.workersMu.Lock()
	c.workers = cp
	c.workersMu.Unlock()
}

// WritePrometheus renders the fleet metrics in the Prometheus text
// exposition format (version 0.0.4).
func (c *FleetCollector) WritePrometheus(w io.Writer) {
	WriteBuildInfo(w, "placercoord")
	writeScalar(w, "counter", "placercoord_jobs_submitted_total", "Jobs accepted by admission control.", c.JobsSubmitted.Value())
	writeScalar(w, "counter", "placercoord_jobs_rejected_total", "Jobs rejected with 429 (rate limit, quota, or saturation).", c.JobsRejected.Value())
	writeScalar(w, "counter", "placercoord_jobs_assigned_total", "Jobs successfully placed on a worker.", c.JobsAssigned.Value())
	writeScalar(w, "counter", "placercoord_jobs_rerouted_total", "Jobs re-routed off a dead worker.", c.JobsRerouted.Value())
	writeScalar(w, "counter", "placercoord_jobs_stolen_total", "Queued jobs stolen from a hot node onto an idle one.", c.JobsStolen.Value())
	writeScalar(w, "counter", "placercoord_affinity_hits_total", "Submissions routed by checkpoint affinity.", c.AffinityHits.Value())
	writeScalar(w, "counter", "placercoord_parent_routes_total", "ECO children routed to the worker holding the parent placement.", c.ParentRoutes.Value())
	writeScalar(w, "counter", "placercoord_proxy_errors_total", "Failed coordinator-to-worker HTTP calls.", c.ProxyErrors.Value())
	writeScalar(w, "counter", "placercoord_heartbeats_total", "Worker heartbeat reports received.", c.Heartbeats.Value())
	writeScalar(w, "counter", "placercoord_journal_records_total", "Records appended to the crash-safety job journal.", c.JournalRecords.Value())
	writeScalar(w, "counter", "placercoord_journal_replays_total", "Journal records replayed at coordinator boot.", c.JournalReplays.Value())
	writeScalar(w, "counter", "placercoord_journal_recovered_jobs_total", "Non-terminal jobs reconstructed from the journal at boot.", c.JobsRecovered.Value())
	writeScalar(w, "gauge", "placercoord_workers_live", "Workers currently within their heartbeat TTL.", c.WorkersLive.Value())
	writeScalar(w, "gauge", "placercoord_workers_suspect", "Workers whose circuit breaker is open (dispatches failing).", c.WorkersSuspect.Value())
	writeScalar(w, "gauge", "placercoord_jobs_pending", "Admitted jobs waiting for fleet capacity.", c.JobsPending.Value())

	c.workersMu.Lock()
	workers := c.workers
	c.workersMu.Unlock()
	if len(workers) > 0 {
		labeled := func(name, help, kind string, value func(WorkerHealth) string) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
			for _, wh := range workers {
				fmt.Fprintf(w, "%s{worker=%q} %s\n", name, wh.ID, value(wh))
			}
		}
		labeled("placercoord_worker_heartbeat_age_seconds",
			"Seconds since each worker's last heartbeat.", "gauge",
			func(wh WorkerHealth) string { return formatFloat(wh.AgeSeconds) })
		labeled("placercoord_worker_live",
			"Whether each worker is within its heartbeat TTL (1 = live).", "gauge",
			func(wh WorkerHealth) string {
				if wh.Live {
					return "1"
				}
				return "0"
			})
		labeled("placercoord_worker_breaker_state",
			"Each worker's circuit-breaker state (0 = live, 1 = suspect).", "gauge",
			func(wh WorkerHealth) string {
				if wh.Suspect {
					return "1"
				}
				return "0"
			})
		labeled("placercoord_worker_queue_depth",
			"Each worker's last reported queue depth.", "gauge",
			func(wh WorkerHealth) string { return fmt.Sprintf("%d", wh.QueueDepth) })
		labeled("placercoord_worker_running",
			"Each worker's last reported running-job count.", "gauge",
			func(wh WorkerHealth) string { return fmt.Sprintf("%d", wh.Running) })
	}

	writeHistogram(w, "placercoord_submit_seconds", "Coordinator-side submit-to-assignment latency.", "", map[string]*Histogram{
		"": c.SubmitSeconds,
	})
}
