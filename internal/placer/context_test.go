package placer

import (
	"context"
	"errors"
	"testing"

	"repro/internal/wirelength"
)

func TestValidateRejectsBadConfigs(t *testing.T) {
	m := wirelength.NewWA()
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil model", func(c *Config) { c.Model = nil }},
		{"non-pow2 GridX", func(c *Config) { c.GridX = 100 }},
		{"negative GridX", func(c *Config) { c.GridX = -8 }},
		{"non-pow2 GridY", func(c *Config) { c.GridY = 48 }},
		{"unknown optimizer", func(c *Config) { c.Optimizer = "sgd" }},
		{"unknown init", func(c *Config) { c.Init = "random" }},
		{"unknown schedule", func(c *Config) { c.Schedule = "cosine" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(m)
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate accepted a bad config")
			}
			// Place must reject it too, without panicking.
			d := testDesign(t, 60, 0)
			if _, err := Place(d, cfg); err == nil {
				t.Fatal("Place accepted a bad config")
			}
		})
	}
}

func TestValidateAcceptsGoodConfig(t *testing.T) {
	cfg := DefaultConfig(wirelength.NewWA())
	cfg.GridX, cfg.GridY = 64, 32
	cfg.Optimizer = "adam"
	cfg.Init = "quadratic"
	cfg.Schedule = "tangent"
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected a good config: %v", err)
	}
}

func TestPlaceContextCancelledMidRun(t *testing.T) {
	d := testDesign(t, 200, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := fastConfig(wirelength.NewWA())
	cfg.MaxIters = 10000
	cfg.StopOverflow = 1e-9 // never reached: only cancellation can stop us
	cfg.OnIteration = func(pt TrajectoryPoint) bool {
		if pt.Iter >= 3 {
			cancel()
		}
		return true
	}
	res, err := PlaceContext(ctx, d, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("cancelled run must still return a partial result")
	}
	if res.Iterations < 4 || res.Iterations > 10 {
		t.Errorf("expected prompt cancellation after ~4 iterations, ran %d", res.Iterations)
	}
	if res.HPWL <= 0 {
		t.Errorf("partial result has no HPWL: %+v", res)
	}
	if res.Seconds <= 0 {
		t.Errorf("partial result missing timing: %+v", res)
	}
}

func TestPlaceContextCancelledBeforeStart(t *testing.T) {
	d := testDesign(t, 60, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := PlaceContext(ctx, d, fastConfig(wirelength.NewWA()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil || res.Iterations != 0 {
		t.Fatalf("want zero-iteration partial result, got %+v", res)
	}
}

func TestOnIterationFalseStopsRun(t *testing.T) {
	d := testDesign(t, 120, 0)
	cfg := fastConfig(wirelength.NewWA())
	cfg.MaxIters = 5000
	cfg.StopOverflow = 1e-9
	const stopAt = 5
	var calls int
	cfg.OnIteration = func(pt TrajectoryPoint) bool {
		calls++
		if pt.HPWL <= 0 {
			t.Errorf("hook point missing HPWL: %+v", pt)
		}
		return pt.Iter < stopAt
	}
	res, err := Place(d, cfg)
	if err != nil {
		t.Fatalf("hook stop must not be an error: %v", err)
	}
	if !res.Stopped {
		t.Error("Result.Stopped not set after hook stop")
	}
	if res.Iterations != stopAt+1 {
		t.Errorf("ran %d iterations, want %d", res.Iterations, stopAt+1)
	}
	if calls != stopAt+1 {
		t.Errorf("hook called %d times, want %d", calls, stopAt+1)
	}
}

func TestPhaseTimingIsPopulated(t *testing.T) {
	d := testDesign(t, 100, 0)
	cfg := fastConfig(wirelength.NewWA())
	cfg.MaxIters = 30
	cfg.StopOverflow = 1e-9
	res, err := Place(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SetupSeconds < 0 || res.LoopSeconds <= 0 {
		t.Errorf("phase timings not populated: setup=%g loop=%g", res.SetupSeconds, res.LoopSeconds)
	}
	if res.Seconds < res.LoopSeconds {
		t.Errorf("total %g < loop %g", res.Seconds, res.LoopSeconds)
	}
	if res.Seconds < res.SetupSeconds+res.LoopSeconds-1e-3 {
		t.Errorf("total %g inconsistent with setup %g + loop %g",
			res.Seconds, res.SetupSeconds, res.LoopSeconds)
	}
}

func TestResultCappedOnlyAtTheCap(t *testing.T) {
	unreachable := func() Config {
		cfg := fastConfig(wirelength.NewWA())
		cfg.MaxIters = 5
		cfg.StopOverflow = 1e-9
		return cfg
	}
	hookStop := unreachable()
	hookStop.OnIteration = func(pt TrajectoryPoint) bool { return pt.Iter < hookStop.MaxIters-1 }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := unreachable()
	cancelled.MaxIters = 10
	cancelled.OnIteration = func(pt TrajectoryPoint) bool {
		if pt.Iter == 2 {
			cancel()
		}
		return true
	}
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		cfg    Config
		capped bool
	}{
		{"cap", context.Background(), unreachable(), true},
		{"converged", context.Background(), fastConfig(wirelength.NewWA()), false},
		// The hook ends the run on the cap's own iteration: a stop, not a cap.
		{"hook stop", context.Background(), hookStop, false},
		{"cancelled", ctx, cancelled, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := PlaceContext(tc.ctx, testDesign(t, 120, 0), tc.cfg)
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatal(err)
			}
			if res.Capped != tc.capped {
				t.Errorf("Capped = %v after %d iterations at overflow %g, want %v",
					res.Capped, res.Iterations, res.Overflow, tc.capped)
			}
			if tc.capped && res.Iterations != tc.cfg.MaxIters {
				t.Errorf("capped run took %d iterations, want %d", res.Iterations, tc.cfg.MaxIters)
			}
			if tc.name == "converged" && res.Iterations >= tc.cfg.MaxIters {
				t.Errorf("converging run took %d iterations, the whole cap", res.Iterations)
			}
		})
	}
}
