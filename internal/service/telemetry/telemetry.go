// Package telemetry collects service metrics — atomic counters, gauges, and
// fixed-bucket histograms — and renders them in the Prometheus text
// exposition format. Everything is stdlib-only and safe for concurrent use
// from the job manager's worker goroutines and HTTP scrape handlers.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n < 0 is ignored: counters never go down).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous integer value.
type Gauge struct{ v atomic.Int64 }

// Set stores the value; Add adjusts it by delta (which may be negative).
func (g *Gauge) Set(n int64)  { g.v.Store(n) }
func (g *Gauge) Add(n int64)  { g.v.Add(n) }
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an atomic instantaneous float value (stored as bits).
type FloatGauge struct{ bits atomic.Uint64 }

// Set stores the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus style:
// bucket i counts observations <= Bounds[i], plus an implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float bits, CAS-updated
	count  atomic.Int64
}

// NewHistogram creates a histogram with the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// DurationBuckets are the default latency bounds in seconds.
func DurationBuckets() []float64 {
	return []float64{0.005, 0.02, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}
}

// EngineBuckets are latency bounds for per-iteration engine work, which is
// orders of magnitude faster than whole jobs.
func EngineBuckets() []float64 {
	return []float64{1e-5, 5e-5, 2e-4, 1e-3, 5e-3, 0.02, 0.1, 0.5, 2, 10}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running total of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Collector aggregates every metric the placement service exports.
type Collector struct {
	// Job lifecycle counters.
	JobsSubmitted Counter // accepted into the queue
	JobsRejected  Counter // refused (queue full or shutting down)
	JobsDone      Counter
	JobsFailed    Counter
	JobsCancelled Counter
	// JobsRecovered counts jobs re-enqueued from the durable store at boot;
	// JobsInterrupted counts running jobs persisted as interrupted by a drain.
	JobsRecovered   Counter
	JobsInterrupted Counter
	// JobsPanicked counts worker runs that ended in a recovered panic. Each
	// such job is also counted in JobsFailed; the daemon itself keeps serving.
	JobsPanicked Counter

	// Numerical-health guard activity across all jobs (see internal/guard).
	GuardTrips      Counter
	GuardRollbacks  Counter
	GuardRecoveries Counter

	// CheckpointRetries counts transient snapshot-write failures that were
	// absorbed by the checkpoint retry loop.
	CheckpointRetries Counter

	// Placement-result cache outcomes (the ECO fast path, internal/ecocache):
	// hits were served bit-identically from the cache without running the GP
	// loop, near hits warm-started from a parent's cached placement with only
	// the delta's blast region released, misses cold-started.
	CacheHits     Counter
	CacheNearHits Counter
	CacheMisses   Counter

	// Live gauges.
	QueueDepth  Gauge
	JobsRunning Gauge
	// Placement-result cache size.
	CacheEntries Gauge
	CacheBytes   Gauge

	// Engine throughput and quality.
	Iterations   Counter    // global placement iterations across all jobs
	LastHPWL     FloatGauge // exact HPWL of the most recently finished job
	LastOverflow FloatGauge

	// Stage latencies in seconds.
	GPSeconds    *Histogram
	LGSeconds    *Histogram
	DPSeconds    *Histogram
	TotalSeconds *Histogram
	QueueSeconds *Histogram // time from submit to start

	// Engine-level latencies: one optimizer iteration, and the
	// per-iteration phases keyed by obs phase name (wirelength gradient,
	// density stamp, Poisson solve, field gather, optimizer step). The
	// PhaseSeconds map is built once in NewCollector and never mutated, so
	// concurrent ObservePhase calls need no locking.
	IterationSeconds *Histogram
	PhaseSeconds     map[string]*Histogram
}

// NewCollector returns a Collector with default histogram buckets. The
// per-phase histograms cover the given phase names (obs.EnginePhases() for
// the placement daemon).
func NewCollector(phases ...string) *Collector {
	c := &Collector{
		GPSeconds:        NewHistogram(DurationBuckets()...),
		LGSeconds:        NewHistogram(DurationBuckets()...),
		DPSeconds:        NewHistogram(DurationBuckets()...),
		TotalSeconds:     NewHistogram(DurationBuckets()...),
		QueueSeconds:     NewHistogram(DurationBuckets()...),
		IterationSeconds: NewHistogram(EngineBuckets()...),
		PhaseSeconds:     make(map[string]*Histogram, len(phases)),
	}
	for _, p := range phases {
		c.PhaseSeconds[p] = NewHistogram(EngineBuckets()...)
	}
	return c
}

// ObservePhase records one engine phase span. Phases not registered at
// construction are dropped (the map is immutable for lock-free reads).
func (c *Collector) ObservePhase(phase string, seconds float64) {
	if h := c.PhaseSeconds[phase]; h != nil {
		h.Observe(seconds)
	}
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4).
func (c *Collector) WritePrometheus(w io.Writer) {
	WriteBuildInfo(w, "placerd")
	writeScalar(w, "counter", "placerd_jobs_submitted_total", "Jobs accepted into the queue.", c.JobsSubmitted.Value())
	writeScalar(w, "counter", "placerd_jobs_rejected_total", "Jobs rejected at submit (queue full or draining).", c.JobsRejected.Value())

	fmt.Fprintf(w, "# HELP placerd_jobs_finished_total Jobs that reached a terminal state.\n")
	fmt.Fprintf(w, "# TYPE placerd_jobs_finished_total counter\n")
	fmt.Fprintf(w, "placerd_jobs_finished_total{state=\"done\"} %d\n", c.JobsDone.Value())
	fmt.Fprintf(w, "placerd_jobs_finished_total{state=\"failed\"} %d\n", c.JobsFailed.Value())
	fmt.Fprintf(w, "placerd_jobs_finished_total{state=\"cancelled\"} %d\n", c.JobsCancelled.Value())

	writeScalar(w, "counter", "placerd_jobs_recovered_total", "Jobs re-enqueued from the durable store at boot.", c.JobsRecovered.Value())
	writeScalar(w, "counter", "placerd_jobs_interrupted_total", "Running jobs persisted as interrupted during shutdown.", c.JobsInterrupted.Value())
	writeScalar(w, "counter", "placerd_jobs_panicked_total", "Worker runs that ended in a recovered panic.", c.JobsPanicked.Value())

	writeScalar(w, "counter", "placerd_guard_trips_total", "Numerical-health guard invariant violations.", c.GuardTrips.Value())
	writeScalar(w, "counter", "placerd_guard_rollbacks_total", "Guard rollbacks to an earlier snapshot.", c.GuardRollbacks.Value())
	writeScalar(w, "counter", "placerd_guard_recoveries_total", "Divergence episodes closed cleanly after rollback.", c.GuardRecoveries.Value())
	writeScalar(w, "counter", "placerd_checkpoint_write_retries_total", "Transient checkpoint write failures absorbed by retry.", c.CheckpointRetries.Value())

	writeScalar(w, "counter", "placerd_cache_hits_total", "Jobs served bit-identically from the placement-result cache.", c.CacheHits.Value())
	writeScalar(w, "counter", "placerd_cache_near_hits_total", "Jobs warm-started from a parent's cached placement (partial release).", c.CacheNearHits.Value())
	writeScalar(w, "counter", "placerd_cache_misses_total", "Cache-enabled jobs that cold-started.", c.CacheMisses.Value())

	writeScalar(w, "gauge", "placerd_queue_depth", "Jobs waiting in the queue.", c.QueueDepth.Value())
	writeScalar(w, "gauge", "placerd_jobs_running", "Jobs currently placing.", c.JobsRunning.Value())
	writeScalar(w, "gauge", "placerd_cache_entries", "Entries in the placement-result cache.", c.CacheEntries.Value())
	writeScalar(w, "gauge", "placerd_cache_bytes", "Bytes held by the placement-result cache.", c.CacheBytes.Value())

	writeScalar(w, "counter", "placerd_gp_iterations_total", "Global placement iterations across all jobs.", c.Iterations.Value())
	writeScalar(w, "gauge", "placerd_last_hpwl", "Exact HPWL of the most recently finished job.", formatFloat(c.LastHPWL.Value()))
	writeScalar(w, "gauge", "placerd_last_overflow", "Final density overflow of the most recently finished job.", formatFloat(c.LastOverflow.Value()))

	writeHistogram(w, "placerd_stage_seconds", "Per-stage wall-clock latency in seconds.", "stage", map[string]*Histogram{
		"gp": c.GPSeconds, "lg": c.LGSeconds, "dp": c.DPSeconds,
	})
	writeHistogram(w, "placerd_job_seconds", "End-to-end job latency in seconds.", "", map[string]*Histogram{
		"": c.TotalSeconds,
	})
	writeHistogram(w, "placerd_queue_wait_seconds", "Time jobs spent queued before starting.", "", map[string]*Histogram{
		"": c.QueueSeconds,
	})
	writeHistogram(w, "placerd_gp_iteration_seconds", "Wall-clock latency of one optimizer iteration.", "", map[string]*Histogram{
		"": c.IterationSeconds,
	})
	writeHistogram(w, "placerd_gp_phase_seconds", "Per-iteration engine phase latency in seconds.", "phase", c.PhaseSeconds)
}

// writeScalar renders one unlabeled counter or gauge family (kind is the
// Prometheus type); v is an integer or an already formatted value.
func writeScalar(w io.Writer, kind, name, help string, v any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, kind, name, v)
}

// writeHistogram renders one histogram family; map keys become a
// labelKey="..." label (empty key = no label).
func writeHistogram(w io.Writer, name, help, labelKey string, hs map[string]*Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	keys := make([]string, 0, len(hs))
	for s := range hs {
		keys = append(keys, s)
	}
	sort.Strings(keys)
	for _, key := range keys {
		h := hs[key]
		if h == nil {
			continue
		}
		labels := func(le string) string {
			if key == "" || labelKey == "" {
				return fmt.Sprintf("{le=%q}", le)
			}
			return fmt.Sprintf("{%s=%q,le=%q}", labelKey, key, le)
		}
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", name, labels(formatFloat(b)), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, labels("+Inf"), cum)
		suffix := ""
		if key != "" && labelKey != "" {
			suffix = fmt.Sprintf("{%s=%q}", labelKey, key)
		}
		fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, h.Count())
	}
}

// formatFloat renders a float the way Prometheus expects (shortest
// round-trip representation, no exponent for typical magnitudes).
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
