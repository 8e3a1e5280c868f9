package placertop

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
)

func startFleetWorker(t *testing.T, id string) (*service.Manager, *httptest.Server) {
	t.Helper()
	mgr, err := service.OpenManager(service.Config{Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(mgr))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		mgr.Shutdown(ctx) //nolint:errcheck
	})
	return mgr, srv
}

func placeSpec(seed int64) service.JobSpec {
	return service.JobSpec{
		Design: service.DesignSpec{Synth: &service.SynthSpec{Cells: 64, Seed: seed}},
		Model:  "WA",
		Placer: service.PlacerSpec{MaxIters: 40, StopOverflow: 1e-9, GridX: 16, GridY: 16, Workers: 1},
		Flow:   service.FlowSpec{GPOnly: true},
	}
}

// TestCollectorAgainstLiveFleet is the -once acceptance path: a real
// coordinator fronting two real placerd workers, one completed job. A
// single Collector.Snapshot must show both workers with queue figures and
// yield a job row with a non-empty trajectory, and the rendered frame must
// carry sparkline glyphs.
func TestCollectorAgainstLiveFleet(t *testing.T) {
	mgrA, srvA := startFleetWorker(t, "wA")
	mgrB, srvB := startFleetWorker(t, "wB")
	c, err := fleet.NewCoordinator(fleet.Config{HeartbeatTTL: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for id, pair := range map[string]struct {
		mgr *service.Manager
		srv *httptest.Server
	}{"wA": {mgrA, srvA}, "wB": {mgrB, srvB}} {
		hb := fleet.Heartbeat{ID: id, URL: pair.srv.URL, Stats: pair.mgr.Stats()}
		if err := c.RecordHeartbeat(hb, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	coord := httptest.NewServer(fleet.NewHandler(c))
	defer coord.Close()

	v, _, err := c.Submit(placeSpec(11), "tui-test")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		got, err := c.Get(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == "done" {
			break
		}
		if got.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("job state %s", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	col := NewCollector(coord.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snap, err := col.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if len(snap.Workers) != 2 || snap.WorkersLive != 2 {
		t.Fatalf("snapshot workers = %d live %d, want 2/2", len(snap.Workers), snap.WorkersLive)
	}
	for _, w := range snap.Workers {
		if w.QueueCap <= 0 {
			t.Errorf("worker %s missing queue capacity: %+v", w.ID, w)
		}
	}
	if len(snap.Jobs) != 1 {
		t.Fatalf("snapshot jobs = %d, want 1", len(snap.Jobs))
	}
	job := snap.Jobs[0]
	if job.State != "done" || job.HPWL <= 0 {
		t.Errorf("job row incomplete: %+v", job)
	}
	if len(job.Points) == 0 {
		t.Fatal("job row has no trajectory points (coordinator proxy fetch failed)")
	}
	for i := 1; i < len(job.Points); i++ {
		if job.Points[i].Iter <= job.Points[i-1].Iter {
			t.Fatalf("trajectory tail not ascending at %d", i)
		}
	}
	if ten := snap.Tenants; len(ten) != 1 || ten[0].Name != "tui-test" || ten[0].Admitted != 1 {
		t.Errorf("tenant panel = %+v, want tui-test with 1 admitted", ten)
	}

	out := Render(snap, 100, 28).Plain()
	for _, want := range []string{"wA", "wB", v.ID, "tui-test"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered frame missing %q:\n%s", want, out)
		}
	}
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Errorf("no sparkline in live frame:\n%s", out)
	}

	// A second poll keeps the tail without refetching a drained terminal
	// job, and the snapshot sequence advances.
	snap2, err := col.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Seq != snap.Seq+1 {
		t.Errorf("Seq = %d then %d, want increment", snap.Seq, snap2.Seq)
	}
	if len(snap2.Jobs) != 1 || len(snap2.Jobs[0].Points) != len(job.Points) {
		t.Errorf("second poll lost the trajectory tail")
	}
}

// TestCollectorAgainstSingleWorker: pointed at a bare placerd, the
// collector falls back to /stats + /jobs and renders a one-worker fleet.
func TestCollectorAgainstSingleWorker(t *testing.T) {
	mgr, srv := startFleetWorker(t, "solo")
	v, err := mgr.Submit(placeSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		got, err := mgr.Get(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == service.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	col := NewCollector(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snap, err := col.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Workers) != 1 || !snap.Workers[0].Live {
		t.Fatalf("single-worker snapshot = %+v", snap.Workers)
	}
	if len(snap.Jobs) != 1 || snap.Jobs[0].State != "done" {
		t.Fatalf("jobs = %+v", snap.Jobs)
	}
	if len(snap.Jobs[0].Points) == 0 {
		t.Error("no trajectory tail in single-worker mode")
	}
	out := Render(snap, 80, 24).Plain()
	if !strings.Contains(out, "local") || !strings.Contains(out, v.ID) {
		t.Errorf("frame missing worker/job:\n%s", out)
	}
}

// TestFetch: each poll tops a job's tail up with one ?after=N&follow=false
// request, a resent point the tail already holds is not added twice, and a
// failed request (404: the job was pruned) leaves the tail as it was.
func TestFetch(t *testing.T) {
	var (
		mu      sync.Mutex
		queries []string
		gone    atomic.Bool
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if gone.Load() || r.URL.Path != "/v1/jobs/job-1/trajectory" {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		queries = append(queries, r.URL.RawQuery)
		mu.Unlock()
		after, err := strconv.Atoi(r.URL.Query().Get("after"))
		if err != nil {
			t.Errorf("bad after in %q: %v", r.URL.RawQuery, err)
		}
		// Resend the point at after itself, then three new ones.
		for i := max(after, 0); i < after+4; i++ {
			fmt.Fprintf(w, `{"iter":%d,"overflow":0.5,"hpwl":%d}`+"\n", i, 1000-i)
		}
	}))
	defer srv.Close()

	c := NewCollector(srv.URL)
	c.init()
	poll := func() []service.JobTrajectoryPoint {
		s := &Snapshot{Jobs: []JobRow{{ID: "job-1", State: "running"}}}
		c.fetchTails(context.Background(), s)
		return s.Jobs[0].Points
	}
	iters := func(pts []service.JobTrajectoryPoint) []int {
		var out []int
		for _, p := range pts {
			out = append(out, p.Iter)
		}
		return out
	}

	if got := iters(poll()); fmt.Sprint(got) != "[0 1 2]" {
		t.Fatalf("first poll tail = %v, want [0 1 2]", got)
	}
	if got := iters(poll()); fmt.Sprint(got) != "[0 1 2 3 4 5]" {
		t.Fatalf("second poll tail = %v, want [0 1 2 3 4 5] (resent 2 dropped)", got)
	}
	mu.Lock()
	if got := fmt.Sprint(queries); got != "[after=-1&follow=false after=2&follow=false]" {
		t.Errorf("queries = %s, want after=-1 then after=2, both follow=false", got)
	}
	mu.Unlock()

	gone.Store(true)
	if got := iters(poll()); fmt.Sprint(got) != "[0 1 2 3 4 5]" {
		t.Fatalf("tail after a 404 = %v, want it unchanged", got)
	}
	if c.lastIter["job-1"] != 6 {
		t.Errorf("lastIter after a 404 = %d, want 6", c.lastIter["job-1"])
	}
}
