package core

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/placer"
	"repro/internal/synth"
)

func flowDesign(t testing.TB) *netlist.Design {
	t.Helper()
	d, err := synth.Generate(synth.Spec{
		Name: "flow-test", NumMovable: 300, NumPads: 8, NumNets: 330,
		AvgDegree: 3.6, Utilization: 0.65, TargetDensity: 1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func fastFlow(model string) FlowConfig {
	cfg := DefaultFlowConfig(model)
	cfg.GP = placer.Config{MaxIters: 250, StopOverflow: 0.18}
	return cfg
}

func TestRunFlowStagesAreOrdered(t *testing.T) {
	d := flowDesign(t)
	res, err := RunFlow(d, fastFlow("ME"))
	if err != nil {
		t.Fatal(err)
	}
	if res.GPWL <= 0 || res.LGWL <= 0 || res.DPWL <= 0 {
		t.Fatalf("non-positive wirelengths: %+v", res)
	}
	// Detailed placement never worsens the legalized placement.
	if res.DPWL > res.LGWL+1e-9 {
		t.Errorf("DPWL %g > LGWL %g", res.DPWL, res.LGWL)
	}
	if !res.LegalizationOK {
		t.Error("final placement is not legal")
	}
	if res.Model != "ME" || res.Design != "flow-test" {
		t.Errorf("labels wrong: %q %q", res.Model, res.Design)
	}
	if res.TotalSeconds <= 0 || res.GPIters <= 0 {
		t.Errorf("metrics missing: %+v", res)
	}
}

func TestRunFlowTetrisReference(t *testing.T) {
	d := flowDesign(t)
	cfg := fastFlow("WA")
	cfg.UseTetris = true
	cfg.SkipDetailed = true
	res, err := RunFlow(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DPWL != res.LGWL {
		t.Error("SkipDetailed should report DPWL == LGWL")
	}
	if !res.LegalizationOK {
		t.Error("tetris output not legal")
	}
}

func TestRunFlowRecordsTrajectory(t *testing.T) {
	d := flowDesign(t)
	cfg := fastFlow("WA")
	cfg.GP.RecordEvery = 20
	res, err := RunFlow(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) == 0 {
		t.Error("no trajectory recorded")
	}
}

func TestRunFlowErrors(t *testing.T) {
	d := flowDesign(t)
	if _, err := RunFlow(d, FlowConfig{}); err == nil {
		t.Error("flow without model accepted")
	}
	if _, err := RunFlow(d, DefaultFlowConfig("nope")); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestRunFlowAllModelsProduceLegalPlacements(t *testing.T) {
	if testing.Short() {
		t.Skip("model sweep in -short mode")
	}
	base := flowDesign(t)
	for _, model := range []string{"LSE", "WA", "BiG_CHKS", "ME"} {
		res, err := RunFlow(base.Clone(), fastFlow(model))
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if !res.LegalizationOK {
			t.Errorf("%s: illegal placement", model)
		}
	}
}

func TestRunFlowReportsCap(t *testing.T) {
	cfg := fastFlow("WA")
	cfg.GPOnly = true
	cfg.GP.MaxIters = 5
	cfg.GP.StopOverflow = 1e-9
	res, err := RunFlow(flowDesign(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Capped || res.GPIters != 5 {
		t.Errorf("Capped = %v after %d iterations, want true after 5", res.Capped, res.GPIters)
	}
	// An uncapped result serializes without the field, so the status files
	// of runs that reach their target keep their bytes.
	b, err := json.Marshal(&FlowResult{GPIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "Capped") {
		t.Errorf("uncapped result serializes the flag: %s", b)
	}
}
