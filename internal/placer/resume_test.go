package placer

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/wirelength"
)

// resumeBase is the shared config of the equivalence tests: long enough to
// spread cells, small enough to run in milliseconds, and with a stop
// overflow that never triggers so every run executes exactly MaxIters.
func resumeBase() Config {
	cfg := DefaultConfig(wirelength.NewWA())
	cfg.MaxIters = 60
	cfg.StopOverflow = 1e-9
	cfg.GridX, cfg.GridY = 16, 16
	cfg.RecordEvery = 7
	return cfg
}

// TestCheckpointResumeBitExact is the kill-and-resume equivalence check: a
// run checkpointed at iteration k and restarted from the snapshot must
// finish with bit-identical positions, HPWL, and trajectory to a run that
// was never interrupted. The deprecated Workers knob is accepted and
// ignored, so a snapshot written at one Workers value resumes at another
// with the same bits.
func TestCheckpointResumeBitExact(t *testing.T) {
	// Reference: uninterrupted run.
	dA := testDesign(t, 80, 0)
	resA, err := Place(dA, resumeBase())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		write, resumed int // Workers values before and after the interruption
	}{
		{"workers=1", 1, 1},
		{"workers=3", 3, 3},
		{"workers=4/resume=1", 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Interrupted run: stops after 30 iterations, snapshots every 10.
			dir := t.TempDir()
			dB := testDesign(t, 80, 0)
			cfgB := resumeBase()
			cfgB.Workers = tc.write
			cfgB.MaxIters = 30
			cfgB.Checkpoint = CheckpointConfig{Every: 10, Dir: dir, Keep: 2}
			resB, err := Place(dB, cfgB)
			if err != nil {
				t.Fatal(err)
			}
			if resB.Checkpoints != 3 {
				t.Fatalf("interrupted run wrote %d checkpoints, want 3", resB.Checkpoints)
			}
			names, err := checkpoint.List(dir)
			if err != nil {
				t.Fatal(err)
			}
			if want := []string{checkpoint.FileName(20), checkpoint.FileName(30)}; !reflect.DeepEqual(names, want) {
				t.Fatalf("Keep=2 retained %v, want %v", names, want)
			}

			snap, _, err := checkpoint.LoadLatest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Iter != 30 {
				t.Fatalf("latest snapshot is at iteration %d, want 30", snap.Iter)
			}

			// Resume on a fresh copy of the design and finish the run.
			dC := testDesign(t, 80, 0)
			cfgC := resumeBase()
			cfgC.Workers = tc.resumed
			cfgC.ResumeDir = dir
			resC, err := Place(dC, cfgC)
			if err != nil {
				t.Fatal(err)
			}

			if resC.ResumedFrom != 30 {
				t.Errorf("ResumedFrom = %d, want 30", resC.ResumedFrom)
			}
			if resC.Iterations != resA.Iterations {
				t.Errorf("Iterations = %d, want %d", resC.Iterations, resA.Iterations)
			}
			if resC.Evaluations != resA.Evaluations {
				t.Errorf("Evaluations = %d, want %d", resC.Evaluations, resA.Evaluations)
			}
			if resC.HPWL != resA.HPWL {
				t.Errorf("HPWL = %v, want bit-identical %v (diff %g)", resC.HPWL, resA.HPWL, resC.HPWL-resA.HPWL)
			}
			if resC.Overflow != resA.Overflow {
				t.Errorf("Overflow = %v, want bit-identical %v", resC.Overflow, resA.Overflow)
			}
			for c := range dA.Cells {
				if dA.X[c] != dC.X[c] || dA.Y[c] != dC.Y[c] {
					t.Fatalf("cell %d position diverged: (%v,%v) vs (%v,%v)",
						c, dA.X[c], dA.Y[c], dC.X[c], dC.Y[c])
				}
			}
			if !reflect.DeepEqual(resA.Trajectory, resC.Trajectory) {
				t.Errorf("trajectories diverged: %d vs %d points", len(resA.Trajectory), len(resC.Trajectory))
			}
		})
	}
}

// TestQuadraticInitResumeBitExact a resume takes its positions from the
// snapshot and builds no initial placement, so a run that starts from
// quadratic placement, interrupted and resumed, still ends bit-identical to
// the uninterrupted run. A frozen run cannot start from quadratic placement,
// which would move the cells it pins.
func TestQuadraticInitResumeBitExact(t *testing.T) {
	cfg := resumeBase()
	cfg.Init = "quadratic"
	dA := testDesign(t, 80, 0)
	resA, err := Place(dA, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cut := cfg
	cut.MaxIters = 30
	cut.Checkpoint = CheckpointConfig{Every: 10, Dir: dir}
	if _, err := Place(testDesign(t, 80, 0), cut); err != nil {
		t.Fatal(err)
	}
	resumed := cfg
	resumed.ResumeDir = dir
	dC := testDesign(t, 80, 0)
	resC, err := Place(dC, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if resC.ResumedFrom != 30 || resC.Iterations != resA.Iterations || resC.Evaluations != resA.Evaluations {
		t.Errorf("resumed from %d, ran %d iterations and %d evaluations; want 30, %d, %d",
			resC.ResumedFrom, resC.Iterations, resC.Evaluations, resA.Iterations, resA.Evaluations)
	}
	if resC.HPWL != resA.HPWL || resC.Overflow != resA.Overflow {
		t.Errorf("HPWL %v, overflow %v; want bit-identical %v, %v", resC.HPWL, resC.Overflow, resA.HPWL, resA.Overflow)
	}
	for c := range dA.Cells {
		if dA.X[c] != dC.X[c] || dA.Y[c] != dC.Y[c] {
			t.Fatalf("cell %d position diverged: (%v,%v) vs (%v,%v)", c, dA.X[c], dA.Y[c], dC.X[c], dC.Y[c])
		}
	}
	if !reflect.DeepEqual(resA.Trajectory, resC.Trajectory) {
		t.Errorf("trajectories diverged: %d vs %d points", len(resA.Trajectory), len(resC.Trajectory))
	}

	frozen := cfg
	frozen.Freeze = make([]bool, dA.NumCells())
	frozen.Freeze[dA.MovableIndices()[0]] = true
	if _, err := Place(testDesign(t, 80, 0), frozen); err == nil {
		t.Error("a frozen run started from quadratic placement")
	}
}

// TestResumeRejectsMismatchedConfig resume under a different model, grid,
// optimizer, seed, or design must skip the snapshot and cold-start: bit-exact
// resume holds only for the identical setup, so every one of these fields is
// in the fingerprint.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	dir := t.TempDir()
	d := testDesign(t, 60, 0)
	cfg := resumeBase()
	cfg.MaxIters = 10
	cfg.Checkpoint = CheckpointConfig{Every: 5, Dir: dir}
	if _, err := Place(d, cfg); err != nil {
		t.Fatal(err)
	}
	// The unmutated setup resumes, so each cold start below is the
	// fingerprint's doing.
	same := resumeBase()
	same.ResumeDir = dir
	res, err := Place(testDesign(t, 60, 0), same)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != 10 {
		t.Fatalf("unmutated setup resumed from iteration %d, want 10", res.ResumedFrom)
	}

	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"model", func(c *Config) { c.Model = wirelength.NewLSE() }},
		{"grid", func(c *Config) { c.GridX, c.GridY = 32, 32 }},
		{"optimizer", func(c *Config) { c.Optimizer = "adam" }},
		{"seed", func(c *Config) { c.Seed = 99 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := resumeBase()
			c.ResumeDir = dir
			tc.mut(&c)
			res, err := Place(testDesign(t, 60, 0), c)
			if err != nil {
				t.Fatal(err)
			}
			if res.ResumedFrom != 0 {
				t.Errorf("ResumedFrom = %d, want 0 (mismatched snapshot skipped)", res.ResumedFrom)
			}
		})
	}

	t.Run("different design", func(t *testing.T) {
		c := resumeBase()
		c.ResumeDir = dir
		res, err := Place(testDesign(t, 90, 0), c)
		if err != nil {
			t.Fatal(err)
		}
		if res.ResumedFrom != 0 {
			t.Errorf("ResumedFrom = %d, want 0 (mismatched snapshot skipped)", res.ResumedFrom)
		}
	})
}

// TestResumeMatchesScheduleAndPrecondition the smoothing schedule and the
// preconditioner both change the trajectory, so a snapshot resumes only a
// run that resolves the same schedule and preconditions the same way. An
// empty Schedule resolves by the model: a default ME run and a "tangent"
// run are the same setup.
func TestResumeMatchesScheduleAndPrecondition(t *testing.T) {
	me := func(schedule string, precondition bool, dir string) Config {
		cfg := DefaultConfig(wirelength.NewMoreau())
		cfg.MaxIters = 40
		cfg.StopOverflow = 1e-9
		cfg.GridX, cfg.GridY = 16, 16
		cfg.Schedule = schedule
		cfg.Precondition = precondition
		cfg.ResumeDir = dir
		return cfg
	}
	checkpointed := func(schedule string) string {
		dir := t.TempDir()
		cfg := me(schedule, false, "")
		cfg.MaxIters = 30
		cfg.Checkpoint = CheckpointConfig{Every: 10, Dir: dir}
		if _, err := Place(testDesign(t, 60, 0), cfg); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	gamma := checkpointed("gamma")
	def := checkpointed("")
	for _, tc := range []struct {
		name string
		cfg  Config
		want int
	}{
		{"default schedule on gamma", me("", false, gamma), 0},
		{"gamma preconditioned on gamma", me("gamma", true, gamma), 0},
		{"gamma on gamma", me("gamma", false, gamma), 30},
		{"tangent on default", me("tangent", false, def), 30},
		{"gamma on default", me("gamma", false, def), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Place(testDesign(t, 60, 0), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.ResumedFrom != tc.want {
				t.Errorf("ResumedFrom = %d, want %d", res.ResumedFrom, tc.want)
			}
		})
	}
}

// TestCheckpointOnCancel a cancelled run leaves a snapshot of its freshest
// state behind, and that snapshot resumes cleanly.
func TestCheckpointOnCancel(t *testing.T) {
	dir := t.TempDir()
	d := testDesign(t, 60, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := resumeBase()
	cfg.Checkpoint = CheckpointConfig{Dir: dir} // no periodic writes: only the cancel path
	cfg.OnIteration = func(pt TrajectoryPoint) bool {
		if pt.Iter >= 12 {
			cancel()
		}
		return true
	}
	_, err := PlaceContext(ctx, d, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	snap, _, err := checkpoint.LoadLatest(dir)
	if err != nil {
		t.Fatalf("no snapshot after cancel: %v", err)
	}
	if snap.Iter < 12 {
		t.Fatalf("cancel snapshot at iteration %d, want >= 12", snap.Iter)
	}
	c := resumeBase()
	c.ResumeDir = dir
	c.OnIteration = nil
	res, err := Place(testDesign(t, 60, 0), c)
	if err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	if res.Iterations != c.MaxIters {
		t.Errorf("resumed run did %d iterations, want %d", res.Iterations, c.MaxIters)
	}
}

// TestCheckpointOnEarlyStop the OnIteration-stop path also snapshots.
func TestCheckpointOnEarlyStop(t *testing.T) {
	dir := t.TempDir()
	cfg := resumeBase()
	cfg.Checkpoint = CheckpointConfig{Dir: dir}
	cfg.OnIteration = func(pt TrajectoryPoint) bool { return pt.Iter < 7 }
	res, err := Place(testDesign(t, 60, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("run was not stopped by the hook")
	}
	snap, _, err := checkpoint.LoadLatest(dir)
	if err != nil {
		t.Fatalf("no snapshot after early stop: %v", err)
	}
	if snap.Iter != 8 {
		t.Errorf("early-stop snapshot at iteration %d, want 8", snap.Iter)
	}
}

func TestValidateRejectsNegativeKnobs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative MaxIters", func(c *Config) { c.MaxIters = -5 }},
		{"negative StopOverflow", func(c *Config) { c.StopOverflow = -0.1 }},
		{"NaN StopOverflow", func(c *Config) { c.StopOverflow = math.NaN() }},
		{"infinite StopOverflow", func(c *Config) { c.StopOverflow = math.Inf(1) }},
		{"negative Workers", func(c *Config) { c.Workers = -1 }},
		{"negative Checkpoint.Every", func(c *Config) { c.Checkpoint.Every = -5 }},
		{"negative Checkpoint.Keep", func(c *Config) { c.Checkpoint.Keep = -1 }},
		{"Every without Dir", func(c *Config) { c.Checkpoint.Every = 10 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(wirelength.NewWA())
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate accepted a bad config")
			}
			if _, err := Place(testDesign(t, 60, 0), cfg); err == nil {
				t.Fatal("Place accepted a bad config")
			}
		})
	}
}
