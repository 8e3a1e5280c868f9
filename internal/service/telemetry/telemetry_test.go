package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterMonotonic(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // counters never go down
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
}

func TestGauges(t *testing.T) {
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
	var f FloatGauge
	f.Set(3.25)
	if got := f.Value(); got != 3.25 {
		t.Errorf("float gauge = %g, want 3.25", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 5, 10)
	for _, v := range []float64{0.5, 1, 1.5, 7, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-110) > 1e-12 {
		t.Errorf("sum = %g, want 110", got)
	}
	// Cumulative counts: le=1 holds {0.5, 1}, le=5 adds {1.5}, le=10 adds
	// {7}, +Inf adds {100}.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	c := NewCollector()
	c.JobsSubmitted.Add(3)
	c.JobsDone.Inc()
	c.JobsCancelled.Inc()
	c.QueueDepth.Set(2)
	c.Iterations.Add(123)
	c.LastHPWL.Set(4567.5)
	c.GPSeconds.Observe(0.3)
	c.TotalSeconds.Observe(1.2)
	c.QueueSeconds.Observe(0.001)

	var sb strings.Builder
	c.WritePrometheus(&sb)
	out := sb.String()

	for _, want := range []string{
		"# TYPE placerd_jobs_submitted_total counter",
		"placerd_jobs_submitted_total 3",
		`placerd_jobs_finished_total{state="done"} 1`,
		`placerd_jobs_finished_total{state="cancelled"} 1`,
		`placerd_jobs_finished_total{state="failed"} 0`,
		"placerd_queue_depth 2",
		"placerd_gp_iterations_total 123",
		"placerd_last_hpwl 4567.5",
		`placerd_stage_seconds_bucket{stage="gp",le="0.5"} 1`,
		`placerd_stage_seconds_count{stage="gp"} 1`,
		`placerd_job_seconds_bucket{le="+Inf"} 1`,
		"placerd_job_seconds_count 1",
		"placerd_queue_wait_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// TestHistogramExactExposition pins the exact Prometheus text a histogram
// family renders: HELP/TYPE header, cumulative buckets (each le includes
// everything below it), the +Inf bucket equal to the total count, and the
// sum/count pair.
func TestHistogramExactExposition(t *testing.T) {
	h := NewHistogram(0.5, 2)
	for _, v := range []float64{0.1, 0.5, 1, 3} {
		h.Observe(v)
	}
	var sb strings.Builder
	writeHistogram(&sb, "x_seconds", "Help text.", "stage", map[string]*Histogram{"gp": h})
	want := `# HELP x_seconds Help text.
# TYPE x_seconds histogram
x_seconds_bucket{stage="gp",le="0.5"} 2
x_seconds_bucket{stage="gp",le="2"} 3
x_seconds_bucket{stage="gp",le="+Inf"} 4
x_seconds_sum{stage="gp"} 4.6
x_seconds_count{stage="gp"} 4
`
	if got := sb.String(); got != want {
		t.Errorf("exposition:\n got %q\nwant %q", got, want)
	}

	// Without a label key the series carry no labels beyond le.
	sb.Reset()
	writeHistogram(&sb, "y_seconds", "H.", "", map[string]*Histogram{"": h})
	for _, line := range []string{
		`y_seconds_bucket{le="+Inf"} 4`, "y_seconds_sum 4.6", "y_seconds_count 4",
	} {
		if !strings.Contains(sb.String(), line) {
			t.Errorf("unlabeled exposition missing %q\n%s", line, sb.String())
		}
	}
}

// TestHistogramInfBucket: values above every bound land only in +Inf; the
// +Inf cumulative count always equals Count().
func TestHistogramInfBucket(t *testing.T) {
	h := NewHistogram(1)
	h.Observe(100)
	h.Observe(1e18)
	if got := h.counts[0].Load(); got != 0 {
		t.Errorf("finite bucket = %d, want 0", got)
	}
	if got := h.counts[1].Load(); got != 2 {
		t.Errorf("+Inf bucket = %d, want 2", got)
	}
	if got := h.Count(); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many goroutines
// with values spread across buckets; meaningful under -race, and the CAS
// float sum must not lose updates.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	vals := []float64{0.5, 5, 50, 500}
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(vals[(w+i)%len(vals)])
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Errorf("count = %d, want %d", got, workers*per)
	}
	perBucket := int64(workers * per / len(vals))
	for i := range vals {
		if got := h.counts[i].Load(); got != perBucket {
			t.Errorf("bucket %d = %d, want %d", i, got, perBucket)
		}
	}
	wantSum := float64(workers*per/len(vals)) * (0.5 + 5 + 50 + 500)
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Errorf("sum = %g, want %g (CAS lost updates)", got, wantSum)
	}
}

// TestEngineHistograms covers the iteration-latency and per-phase families
// added for the placement engine.
func TestEngineHistograms(t *testing.T) {
	c := NewCollector("wirelength", "poisson-solve")
	c.IterationSeconds.Observe(0.01)
	c.ObservePhase("wirelength", 0.002)
	c.ObservePhase("wirelength", 0.004)
	c.ObservePhase("poisson-solve", 0.008)
	c.ObservePhase("unregistered", 1) // silently dropped

	var sb strings.Builder
	c.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE placerd_gp_iteration_seconds histogram",
		"placerd_gp_iteration_seconds_count 1",
		`placerd_gp_phase_seconds_count{phase="wirelength"} 2`,
		`placerd_gp_phase_seconds_count{phase="poisson-solve"} 1`,
		`placerd_gp_phase_seconds_bucket{phase="wirelength",le="+Inf"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "unregistered") {
		t.Error("unregistered phase leaked into the exposition")
	}
}

// TestConcurrentUpdates exercises every metric type from many goroutines;
// meaningful under `go test -race`.
func TestConcurrentUpdates(t *testing.T) {
	c := NewCollector()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.JobsSubmitted.Inc()
				c.QueueDepth.Add(1)
				c.QueueDepth.Add(-1)
				c.LastHPWL.Set(float64(j))
				c.GPSeconds.Observe(0.25)
				var sb strings.Builder
				if j%100 == 0 {
					c.WritePrometheus(&sb)
				}
			}
		}()
	}
	wg.Wait()
	if got := c.JobsSubmitted.Value(); got != workers*per {
		t.Errorf("submitted = %d, want %d", got, workers*per)
	}
	if got := c.QueueDepth.Value(); got != 0 {
		t.Errorf("queue depth = %d, want 0", got)
	}
	if got := c.GPSeconds.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if got := c.GPSeconds.Sum(); math.Abs(got-float64(workers*per)*0.25) > 1e-9 {
		t.Errorf("histogram sum = %g, want %g", got, float64(workers*per)*0.25)
	}
}

// TestFleetCollectorExposition pins the coordinator metric names — the
// journal/recovery counters and the breaker gauges are part of the scrape
// contract the failure-model docs point dashboards at.
func TestFleetCollectorExposition(t *testing.T) {
	c := NewFleetCollector()
	c.JournalRecords.Add(5)
	c.JournalReplays.Add(3)
	c.JobsRecovered.Add(2)
	c.WorkersSuspect.Set(1)
	c.SetWorkerHealth([]WorkerHealth{
		{ID: "w1", AgeSeconds: 0.5, Live: true, Suspect: true, QueueDepth: 2, Running: 1},
		{ID: "w0", AgeSeconds: 1.5, Live: true},
	})
	c.SubmitSeconds.Observe(0.25)
	c.SubmitSeconds.Observe(1.5)

	var sb strings.Builder
	c.WritePrometheus(&sb)
	out := sb.String()
	var submit []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "placercoord_submit_seconds") {
			submit = append(submit, line)
		}
	}
	wantSubmit := []string{
		"# HELP placercoord_submit_seconds Coordinator-side submit-to-assignment latency.",
		"# TYPE placercoord_submit_seconds histogram",
		`placercoord_submit_seconds_bucket{le="0.005"} 0`,
		`placercoord_submit_seconds_bucket{le="0.02"} 0`,
		`placercoord_submit_seconds_bucket{le="0.1"} 0`,
		`placercoord_submit_seconds_bucket{le="0.5"} 1`,
		`placercoord_submit_seconds_bucket{le="1"} 1`,
		`placercoord_submit_seconds_bucket{le="2.5"} 2`,
		`placercoord_submit_seconds_bucket{le="5"} 2`,
		`placercoord_submit_seconds_bucket{le="10"} 2`,
		`placercoord_submit_seconds_bucket{le="30"} 2`,
		`placercoord_submit_seconds_bucket{le="60"} 2`,
		`placercoord_submit_seconds_bucket{le="120"} 2`,
		`placercoord_submit_seconds_bucket{le="300"} 2`,
		`placercoord_submit_seconds_bucket{le="+Inf"} 2`,
		"placercoord_submit_seconds_sum 1.75",
		"placercoord_submit_seconds_count 2",
	}
	if strings.Join(submit, "\n") != strings.Join(wantSubmit, "\n") {
		t.Errorf("submit histogram lines:\n%s\nwant:\n%s", strings.Join(submit, "\n"), strings.Join(wantSubmit, "\n"))
	}
	for _, want := range []string{
		"placercoord_journal_records_total 5",
		"placercoord_journal_replays_total 3",
		"placercoord_journal_recovered_jobs_total 2",
		"placercoord_workers_suspect 1",
		`placercoord_worker_breaker_state{worker="w0"} 0`,
		`placercoord_worker_breaker_state{worker="w1"} 1`,
		`placercoord_worker_queue_depth{worker="w1"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet exposition missing %q", want)
		}
	}
	// SetWorkerHealth sorts by ID for stable exposition order.
	if strings.Index(out, `worker="w0"`) > strings.Index(out, `worker="w1"`) {
		t.Error("worker series not sorted by ID")
	}
}
