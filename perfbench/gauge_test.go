package main

import (
	"testing"

	rsynth "repro/perfbench/refgp/synth"
)

func TestGaugeRepeatsItsWork(t *testing.T) {
	g, err := newGauge(rsynth.Spec{Name: "gauge-test", NumMovable: 300, NumPads: 4, NumNets: 330, AvgDegree: 3.5, Utilization: 0.7, TargetDensity: 1, Seed: 1}, "ME", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if sec, err := g.measure(); err != nil || sec <= 0 {
			t.Fatalf("measurement %d: %v s, %v", i, sec, err)
		}
	}
	if g.broken != 0 || len(g.runs) != 2 {
		t.Fatalf("%d of %d runs did not repeat the first run's HPWL", g.broken, len(g.runs))
	}
	if got := g.scale(0.05, 0.15); got != 1 {
		t.Errorf("scale(0.05, 0.15) with nominal 0.1 = %v, want 1", got)
	}
	if got := (&gauge{nominal: 1, runs: []float64{8, 2, 4}}).runScale(); got != 0.25 {
		t.Errorf("runScale over runs of 8, 2 and 4 s with nominal 1 s = %v, want 0.25", got)
	}
}
