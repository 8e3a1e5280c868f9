package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden exposition files")

// exposition renders a collector and drops the _build_info family, whose
// labels depend on the toolchain and the checkout.
func exposition(write func(*strings.Builder)) string {
	var sb strings.Builder
	write(&sb)
	var keep []string
	for _, line := range strings.SplitAfter(sb.String(), "\n") {
		if !strings.Contains(line, "_build_info") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "")
}

// TestExpositionGolden pins both collectors' full Prometheus text, byte for
// byte, with every series populated: metric names, HELP text, order and
// number formatting are the scrape contract dashboards depend on.
func TestExpositionGolden(t *testing.T) {
	c := NewCollector("wirelength", "density-stamp", "poisson-solve", "field-gather", "optimizer-step")
	for i, ctr := range []*Counter{
		&c.JobsSubmitted, &c.JobsRejected, &c.JobsDone, &c.JobsFailed, &c.JobsCancelled,
		&c.JobsRecovered, &c.JobsInterrupted, &c.JobsPanicked, &c.GuardTrips,
		&c.GuardRollbacks, &c.GuardRecoveries, &c.CheckpointRetries, &c.CacheHits,
		&c.CacheNearHits, &c.CacheMisses, &c.Iterations,
	} {
		ctr.Add(int64(i + 1))
	}
	c.QueueDepth.Set(3)
	c.JobsRunning.Set(2)
	c.CacheEntries.Set(17)
	c.CacheBytes.Set(1 << 20)
	c.LastHPWL.Set(4567.25)
	c.LastOverflow.Set(0.0875)
	for i, h := range []*Histogram{c.GPSeconds, c.LGSeconds, c.DPSeconds, c.TotalSeconds, c.QueueSeconds} {
		h.Observe(0.003 * float64(i+1))
		h.Observe(1.5 * float64(i+1))
	}
	c.IterationSeconds.Observe(0.004)
	c.ObservePhase("wirelength", 0.0015)
	c.ObservePhase("poisson-solve", 0.0003)
	c.ObservePhase("poisson-solve", 12)

	f := NewFleetCollector()
	for i, ctr := range []*Counter{
		&f.JobsSubmitted, &f.JobsRejected, &f.JobsAssigned, &f.JobsRerouted, &f.JobsStolen,
		&f.AffinityHits, &f.ParentRoutes, &f.ProxyErrors, &f.JournalRecords,
		&f.JournalReplays, &f.JobsRecovered, &f.Heartbeats,
	} {
		ctr.Add(int64(10 * (i + 1)))
	}
	f.WorkersLive.Set(2)
	f.WorkersSuspect.Set(1)
	f.JobsPending.Set(4)
	f.SetWorkerHealth([]WorkerHealth{
		{ID: "w1", AgeSeconds: 0.5, Live: true, Suspect: true, QueueDepth: 2, Running: 1},
		{ID: "w0", AgeSeconds: 31.25, QueueDepth: 0, Running: 0},
	})
	f.SubmitSeconds.Observe(0.25)
	f.SubmitSeconds.Observe(1.5)

	for name, got := range map[string]string{
		"placerd.prom":     exposition(func(sb *strings.Builder) { c.WritePrometheus(sb) }),
		"placercoord.prom": exposition(func(sb *strings.Builder) { f.WritePrometheus(sb) }),
	} {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run go test -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s drifted from golden (run go test -update after verifying):\n--- got ---\n%s", name, got)
		}
	}
}
