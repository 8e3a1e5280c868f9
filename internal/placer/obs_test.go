package placer

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/wirelength"
)

// TestObservedRunTraceRoundTrip runs an instrumented placement and pins the
// span accounting: the optimizer-step and iteration spans appear exactly
// once per iteration, the wirelength span once per evaluation that could
// not reuse the kept one, the three density phases once more than that
// (set-up's computation, whose wirelength half calibrates lambda0 outside
// any span), and the exported Chrome trace decodes back to the identical
// event list.
func TestObservedRunTraceRoundTrip(t *testing.T) {
	d := testDesign(t, 80, 0)
	cfg := fastConfig(wirelength.NewMoreau())
	cfg.MaxIters = 25
	cfg.StopOverflow = 1e-9
	cfg.RecordEvery = 5 // HPWL is measured on recorded iterations
	o := &obs.Observer{Trace: obs.NewTracer(), Metrics: obs.NewMetrics()}
	cfg.Obs = o
	res, err := Place(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != cfg.MaxIters {
		t.Fatalf("ran %d iterations, want %d", res.Iterations, cfg.MaxIters)
	}

	perPhase := map[string]int{}
	maxIterTag := -1
	for _, ev := range o.Trace.Events() {
		perPhase[ev.Name]++
		if ev.Iter > maxIterTag {
			maxIterTag = ev.Iter
		}
	}
	if got := perPhase[obs.PhaseStep]; got != res.Iterations {
		t.Errorf("%s spans = %d, want exactly %d (one per iteration)", obs.PhaseStep, got, res.Iterations)
	}
	if got := perPhase[obs.PhaseIteration]; got != res.Iterations {
		t.Errorf("%s spans = %d, want exactly %d", obs.PhaseIteration, got, res.Iterations)
	}
	// Each Nesterov step's first evaluation repeats the previous step's
	// accepted trial point (setup's point for the first step), and no
	// backtracking runs out in this run.
	reused := int(o.Metrics.Snapshot().Counters["eval_reused"])
	if reused != res.Iterations {
		t.Errorf("eval_reused = %d, want %d (one per iteration)", reused, res.Iterations)
	}
	if got, want := perPhase[obs.PhaseWirelength], res.Evaluations-reused; got != want {
		t.Errorf("%s spans = %d, want %d (evaluations - eval_reused)", obs.PhaseWirelength, got, want)
	}
	for _, p := range []string{obs.PhaseStamp, obs.PhaseSolve, obs.PhaseGather} {
		if got, want := perPhase[p], res.Evaluations-reused+1; got != want {
			t.Errorf("%s spans = %d, want %d (evaluations - eval_reused + setup's)", p, got, want)
		}
	}
	if res.Evaluations < res.Iterations {
		t.Errorf("evaluations %d < iterations %d", res.Evaluations, res.Iterations)
	}
	if perPhase[obs.PhaseSetup] != 1 {
		t.Errorf("%s spans = %d, want 1", obs.PhaseSetup, perPhase[obs.PhaseSetup])
	}
	if maxIterTag != res.Iterations-1 {
		t.Errorf("max iteration tag = %d, want %d", maxIterTag, res.Iterations-1)
	}

	var buf bytes.Buffer
	if err := o.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := obs.ReadChromeTrace(&buf)
	if err != nil {
		t.Fatalf("exported trace does not decode: %v", err)
	}
	want := o.Trace.Events()
	got := rt.Events
	if len(got) != len(want) {
		t.Fatalf("round trip lost spans: %d -> %d", len(want), len(got))
	}
	// The exporter reorders (ts asc, parents first) but must keep every span
	// bit-identical; compare as multisets.
	index := map[obs.SpanEvent]int{}
	for _, ev := range want {
		index[ev]++
	}
	for _, ev := range got {
		index[ev]--
		if index[ev] < 0 {
			t.Fatalf("round trip invented span %+v", ev)
		}
	}

	// The metrics registry agrees with the engine's own accounting, and the
	// Moreau evaluator counters flow through for the ME model.
	snap := o.Metrics.Snapshot()
	if int(snap.Evaluations) != res.Evaluations {
		t.Errorf("metrics evaluations = %d, want %d", snap.Evaluations, res.Evaluations)
	}
	if snap.Counters["moreau_net_evals"] <= 0 {
		t.Errorf("moreau_net_evals = %d, want > 0 for the ME model", snap.Counters["moreau_net_evals"])
	}
}

// TestObservedRunMatchesUnobserved: attaching a full observer must not
// change the optimization itself — positions and HPWL stay bit-identical.
func TestObservedRunMatchesUnobserved(t *testing.T) {
	cfgA := fastConfig(wirelength.NewWA())
	cfgA.MaxIters = 30
	cfgA.StopOverflow = 1e-9
	dA := testDesign(t, 80, 0)
	resA, err := Place(dA, cfgA)
	if err != nil {
		t.Fatal(err)
	}

	cfgB := fastConfig(wirelength.NewWA())
	cfgB.MaxIters = 30
	cfgB.StopOverflow = 1e-9
	cfgB.Obs = &obs.Observer{Trace: obs.NewTracer(), Metrics: obs.NewMetrics()}
	dB := testDesign(t, 80, 0)
	resB, err := Place(dB, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if resA.HPWL != resB.HPWL || resA.Evaluations != resB.Evaluations {
		t.Errorf("observer changed the run: HPWL %v vs %v, evals %d vs %d",
			resA.HPWL, resB.HPWL, resA.Evaluations, resB.Evaluations)
	}
	for c := range dA.Cells {
		if dA.X[c] != dB.X[c] || dA.Y[c] != dB.Y[c] {
			t.Fatalf("cell %d diverged under observation", c)
		}
	}
	if !reflect.DeepEqual(resA.Trajectory, resB.Trajectory) {
		t.Error("trajectory diverged under observation")
	}
}

// TestStartRecordCarriesGrid pins the one "gp: starting" record a JSON
// logger at info receives per run, and its grid field written as
// "<GridX>x<GridY>": the benchmark's traced run reads its grid fact there.
func TestStartRecordCarriesGrid(t *testing.T) {
	var buf bytes.Buffer
	logger, err := obs.New(&buf, "json", obs.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(wirelength.NewWA())
	cfg.MaxIters = 5
	cfg.GridX, cfg.GridY = 32, 16
	cfg.Obs = &obs.Observer{Log: logger}
	if _, err := Place(testDesign(t, 80, 0), cfg); err != nil {
		t.Fatal(err)
	}
	var starts []map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if rec["msg"] == "gp: starting" {
			starts = append(starts, rec)
		}
	}
	if len(starts) != 1 {
		t.Fatalf("%d \"gp: starting\" records, want 1:\n%s", len(starts), buf.String())
	}
	if got := starts[0]["grid"]; got != "32x16" {
		t.Errorf("grid = %v, want 32x16", got)
	}
}

// TestObsCancelCheckpointRace cancels an instrumented run from its
// OnIteration hook while checkpoint-on-cancel is armed. Under -race this
// exercises the observer sinks, the engine goroutine, and the cancel path
// together; the run must still leave a resumable snapshot behind.
func TestObsCancelCheckpointRace(t *testing.T) {
	dir := t.TempDir()
	d := testDesign(t, 60, 0)
	ctx, cancel := context.WithCancel(context.Background())

	met := obs.NewMetrics()
	var sinkCalls atomic.Int64
	met.OnIteration = func(float64) { sinkCalls.Add(1) }
	met.OnPhase = func(string, float64) { sinkCalls.Add(1) }

	cfg := resumeBase()
	cfg.Checkpoint = CheckpointConfig{Dir: dir}
	cfg.Obs = &obs.Observer{Trace: obs.NewTracer(), Metrics: met}
	cfg.OnIteration = func(pt TrajectoryPoint) bool {
		if pt.Iter >= 10 {
			cancel()
		}
		return true
	}
	_, err := PlaceContext(ctx, d, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sinkCalls.Load() == 0 {
		t.Error("metrics sinks never fired")
	}

	snap, _, err := checkpoint.LoadLatest(dir)
	if err != nil {
		t.Fatalf("no snapshot after cancel: %v", err)
	}
	if snap.Iter < 10 {
		t.Fatalf("cancel snapshot at iteration %d, want >= 10", snap.Iter)
	}
	c := resumeBase()
	c.ResumeDir = dir
	res, err := Place(testDesign(t, 60, 0), c)
	if err != nil {
		t.Fatalf("resume after observed cancel: %v", err)
	}
	if res.Iterations != c.MaxIters {
		t.Errorf("resumed run did %d iterations, want %d", res.Iterations, c.MaxIters)
	}
}
