package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestPlacerSpecWorkers pins the deprecated worker knob: placer.workers maps
// onto placer.Config.Workers, which ignores it but still rejects a negative
// value at submit. The removed wl_workers alias is an unknown field: a new
// request using it gets the submit handler's 400, while a spec persisted
// with it still loads (the store decodes leniently) and runs.
func TestPlacerSpecWorkers(t *testing.T) {
	var spec JobSpec
	if err := json.Unmarshal([]byte(`{"design": {"synth": {"cells": 100}}, "placer": {"workers": 4}}`), &spec); err != nil {
		t.Fatal(err)
	}
	if cfg := spec.placerConfig(); cfg.Workers != 4 {
		t.Errorf("Workers = %d, want 4", cfg.Workers)
	}
	if err := spec.Validate(""); err != nil {
		t.Fatalf("spec failed validation: %v", err)
	}
	spec.Placer.Workers = -1
	if err := spec.Validate(""); err == nil {
		t.Error("negative placer.workers passed validation")
	}

	const legacy = `{"design": {"synth": {"cells": 100}}, "placer": {"wl_workers": 3}}`
	var persisted JobSpec
	if err := json.Unmarshal([]byte(legacy), &persisted); err != nil {
		t.Fatal(err)
	}
	if err := persisted.Validate(""); err != nil {
		t.Fatalf("persisted legacy spec failed validation: %v", err)
	}
	if cfg := persisted.placerConfig(); cfg.Workers != 0 {
		t.Errorf("legacy spec mapped to Workers=%d, want the default 0", cfg.Workers)
	}

	srv, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wl_workers request status = %d, want 400", resp.StatusCode)
	}
}

// TestPlacerSpecRejectsNegativeStops: a negative iteration cap or stop
// overflow fails at submit instead of running silently at the default.
func TestPlacerSpecRejectsNegativeStops(t *testing.T) {
	for _, body := range []string{
		`{"design": {"synth": {"cells": 100}}, "placer": {"max_iters": -5}}`,
		`{"design": {"synth": {"cells": 100}}, "placer": {"stop_overflow": -0.1}}`,
	} {
		var spec JobSpec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(""); err == nil {
			t.Errorf("spec passed validation: %s", body)
		}
	}
}
