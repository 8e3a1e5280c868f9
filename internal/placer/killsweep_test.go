package placer

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/wirelength"
)

// TestKillAtEveryIterationSweep kills a run at iteration k for every k in
// the loop (checkpointing every iteration), resumes each via ResumeDir,
// and checks every resumed run completes with the uninterrupted run's
// exact final HPWL — the deterministic pipeline makes "within tolerance"
// collapse to bit-identical.
func TestKillAtEveryIterationSweep(t *testing.T) {
	const iters = 12
	base := func() Config {
		cfg := DefaultConfig(wirelength.NewWA())
		cfg.MaxIters = iters
		cfg.StopOverflow = 1e-9 // never triggers: every run does all iterations
		cfg.GridX, cfg.GridY = 16, 16
		return cfg
	}

	dRef := testDesign(t, 40, 0)
	ref, err := Place(dRef, base())
	if err != nil {
		t.Fatal(err)
	}

	for k := 1; k <= iters; k++ {
		k := k
		t.Run(fmt.Sprintf("kill-at-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			cfg := base()
			cfg.Checkpoint = CheckpointConfig{Every: 1, Dir: dir, Keep: 2}
			cfg.OnIteration = func(pt TrajectoryPoint) bool {
				if pt.Iter >= k-1 {
					cancel() // takes effect at the top of iteration k
				}
				return true
			}
			_, err := PlaceContext(ctx, testDesign(t, 40, 0), cfg)
			if !errors.Is(err, context.Canceled) && err != nil {
				t.Fatalf("killed run: err = %v", err)
			}
			if _, _, err := checkpoint.LoadLatest(dir); err != nil {
				t.Fatalf("no snapshot after kill at %d: %v", k, err)
			}

			d := testDesign(t, 40, 0)
			rcfg := base()
			rcfg.ResumeDir = dir
			res, err := Place(d, rcfg)
			if err != nil {
				t.Fatalf("resume after kill at %d: %v", k, err)
			}
			if res.ResumedFrom < k {
				t.Errorf("ResumedFrom = %d, want >= %d", res.ResumedFrom, k)
			}
			if res.Iterations != iters {
				t.Errorf("resumed run did %d iterations, want %d", res.Iterations, iters)
			}
			if res.HPWL != ref.HPWL {
				t.Errorf("kill at %d: HPWL = %v, want bit-identical %v (diff %g)",
					k, res.HPWL, ref.HPWL, res.HPWL-ref.HPWL)
			}
			for c := range dRef.Cells {
				if d.X[c] != dRef.X[c] || d.Y[c] != dRef.Y[c] {
					t.Fatalf("kill at %d: cell %d diverged", k, c)
				}
			}
		})
	}
}

// TestResumeDirColdStartAndMismatch ResumeDir with an empty directory (or
// only mismatched snapshots) cold-starts instead of failing.
func TestResumeDirColdStartAndMismatch(t *testing.T) {
	cfg := resumeBase()
	cfg.MaxIters = 5
	cfg.ResumeDir = t.TempDir() // empty: cold start
	res, err := Place(testDesign(t, 40, 0), cfg)
	if err != nil {
		t.Fatalf("empty ResumeDir: %v", err)
	}
	if res.ResumedFrom != 0 {
		t.Errorf("ResumedFrom = %d, want 0 (cold start)", res.ResumedFrom)
	}

	// A directory holding only a snapshot from a different setup also
	// cold-starts (the fingerprint filter skips it).
	dir := t.TempDir()
	other := resumeBase()
	other.MaxIters = 4
	other.Seed = 99
	other.Checkpoint = CheckpointConfig{Every: 2, Dir: dir}
	if _, err := Place(testDesign(t, 40, 0), other); err != nil {
		t.Fatal(err)
	}
	cfg2 := resumeBase() // Seed 1 != 99: fingerprint mismatch
	cfg2.MaxIters = 5
	cfg2.ResumeDir = dir
	res2, err := Place(testDesign(t, 40, 0), cfg2)
	if err != nil {
		t.Fatalf("mismatched ResumeDir: %v", err)
	}
	if res2.ResumedFrom != 0 {
		t.Errorf("ResumedFrom = %d, want 0 (mismatch skipped)", res2.ResumedFrom)
	}
}
