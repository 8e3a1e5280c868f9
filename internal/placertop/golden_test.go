package placertop

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

var updateGolden = flag.Bool("update", false, "rewrite golden frame files")

func mustLoadFixture(t *testing.T) []service.JobTrajectoryPoint {
	t.Helper()
	pts, err := LoadTrajectory(filepath.Join("testdata", "replay.ndjson"))
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	return pts
}

// fleetSnapshot is a fixed, fully populated fleet view: every panel has
// content so the goldens cover the whole layout.
func fleetSnapshot(t *testing.T) *Snapshot {
	pts := mustLoadFixture(t)
	return &Snapshot{
		Mode:        "live",
		Source:      "http://coord:7171",
		WorkersLive: 1,
		Pending:     2,
		Seq:         42,
		Workers: []WorkerRow{
			{ID: "wA", Live: true, Age: 300 * time.Millisecond, QueueDepth: 3, QueueCap: 8,
				Running: 2, PlaceWorkers: 2, CacheHits: 12, CacheNear: 3, CacheMisses: 40},
			{ID: "wB", Live: false, Age: 7 * time.Second, QueueDepth: 7, QueueCap: 8,
				Running: 1, PlaceWorkers: 2, CacheMisses: 9},
		},
		Tenants: []TenantRow{
			{Name: "prod-eco", Class: "prod", InFlight: 1, MaxInFlight: 4, Admitted: 31},
			{Name: "batch-sweep", Class: "batch", InFlight: 6, Admitted: 120, RejectedRate: 4, RejectedQuota: 2},
		},
		Jobs: []JobRow{
			{ID: "fj-00000001", Tenant: "prod-eco", Class: "prod", State: "done", Worker: "wA",
				Iteration: 120, HPWL: 1.103e6, Overflow: 0.04, Points: pts},
			{ID: "fj-00000002", Tenant: "batch-sweep", Class: "batch", State: "running", Worker: "wA",
				Iteration: 64, HPWL: 1.21e6, Overflow: 0.18, GuardTrips: 1, Points: pts[:64]},
			{ID: "fj-00000003", Tenant: "batch-sweep", Class: "batch", State: "pending",
				Reroutes: 1},
		},
		TruncatedJobs: 5,
		Cache:         CacheStats{Hits: 12, NearHits: 3, Misses: 49},
		Alerts: []string{
			"guard trip on fj-00000002 (total 1)",
			"worker wB stopped heartbeating (age 7.0s)",
		},
	}
}

func replaySnapshot(t *testing.T, pos int) *Snapshot {
	return &Snapshot{
		Mode: "replay",
		Seq:  7,
		Replay: &ReplayState{
			File:   "testdata/replay.ndjson",
			Points: mustLoadFixture(t),
			Pos:    pos,
			Speed:  2,
		},
	}
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("frame %s drifted from golden (run go test -update after verifying):\n--- got ---\n%s", name, got)
	}
}

// TestGoldenFrames pins the rendered frames bit-for-bit at fixed terminal
// sizes: the fleet view and two replay positions, in both plain and ANSI
// form. Any layout change must come with regenerated goldens.
func TestGoldenFrames(t *testing.T) {
	cases := []struct {
		name string
		snap *Snapshot
		w, h int
	}{
		{"fleet_80x24", fleetSnapshot(t), 80, 24},
		{"fleet_120x32", fleetSnapshot(t), 120, 32},
		{"replay_80x24_mid", replaySnapshot(t, 66), 80, 24},
		{"replay_120x32_end", replaySnapshot(t, 120), 120, 32},
		{"replay_80x24_start", replaySnapshot(t, 0), 80, 24},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := Render(tc.snap, tc.w, tc.h)
			checkGolden(t, tc.name, f.Plain())
			checkGolden(t, tc.name+"_ansi", f.ANSI())

			// Bit-stability: a second render of the same snapshot must be
			// byte-identical (the replay determinism guarantee).
			again := Render(tc.snap, tc.w, tc.h)
			if f.ANSI() != again.ANSI() {
				t.Error("rendering is not deterministic")
			}
		})
	}
}

// TestRenderSmallTerminals: every tiny size must render without panicking
// and keep the header.
func TestRenderSmallTerminals(t *testing.T) {
	snap := fleetSnapshot(t)
	rep := replaySnapshot(t, 30)
	for _, wh := range [][2]int{{1, 1}, {20, 5}, {40, 10}, {79, 23}} {
		for _, s := range []*Snapshot{snap, rep} {
			f := Render(s, wh[0], wh[1])
			if f.W != max(wh[0], 1) || f.H != max(wh[1], 1) {
				t.Errorf("frame size %dx%d for requested %v", f.W, f.H, wh)
			}
		}
	}
	out := Render(snap, 40, 10).Plain()
	if !strings.Contains(out, "placertop") {
		t.Errorf("small frame lost header:\n%s", out)
	}
}

// TestPlainFrameMentionsEveryPanel sanity-checks the fleet layout without
// pinning bytes: worker IDs, tenant names, job IDs, and alerts all render.
func TestPlainFrameMentionsEveryPanel(t *testing.T) {
	snap := fleetSnapshot(t)
	out := Render(snap, 100, 30).Plain()
	for _, want := range []string{
		"wA", "wB", "prod-eco", "batch-sweep", "fj-00000001", "fj-00000003",
		"guard trip on fj-00000002", "cache hit 12 near 3 miss 49",
		"workers 1/2", "pending 2", "jobs (+5 older)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Error("no sparkline glyphs in fleet frame")
	}
}

// TestLoadTrajectoryErrors: empty and malformed recordings fail loudly.
func TestLoadTrajectoryErrors(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.ndjson")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrajectory(empty); err == nil {
		t.Error("empty recording must error")
	}
	bad := filepath.Join(dir, "bad.ndjson")
	if err := os.WriteFile(bad, []byte("{\"iter\":0}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrajectory(bad); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("malformed line error = %v, want line 2 mention", err)
	}
	if _, err := LoadTrajectory(filepath.Join(dir, "missing.ndjson")); err == nil {
		t.Error("missing file must error")
	}
	pts, err := LoadTrajectory(filepath.Join("testdata", "replay.ndjson"))
	if err != nil || len(pts) != 120 {
		t.Fatalf("fixture load: %d points, err %v", len(pts), err)
	}
	if pts[64].GuardTrips != 1 || pts[63].GuardTrips != 0 {
		t.Errorf("fixture guard trip not at iter 64: %+v", pts[64])
	}
	_ = fmt.Sprintf
}
