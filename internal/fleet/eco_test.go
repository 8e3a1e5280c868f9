package fleet

import (
	"testing"

	"repro/internal/service"
)

// TestECOParentRouting pins the fleet half of the ECO fast path: a child job
// carrying a parent reference adopts the parent's routing key, lands on the
// worker holding the parent's cached placement, and is served there as a
// near hit.
func TestECOParentRouting(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, nil)
	w1 := startWorker(t, "w1", service.Config{DataDir: t.TempDir()})
	w2 := startWorker(t, "w2", service.Config{DataDir: t.TempDir()})
	for _, w := range []*testWorker{w1, w2} {
		if err := c.RecordHeartbeat(w.heartbeat(), clock.Now()); err != nil {
			t.Fatal(err)
		}
	}

	parent, _, err := c.Submit(fastSpec(7), "t1")
	if err != nil {
		t.Fatal(err)
	}
	pv := waitFleetState(t, c, clock, parent.ID, "done")
	if pv.Worker == "" {
		t.Fatal("parent finished without a worker assignment")
	}

	child := fastSpec(7)
	child.Parent = parent.ID
	child.Design.Perturb = &service.PerturbSpec{Seed: 5, CellFrac: 0.02}
	cv, _, err := c.Submit(child, "t1")
	if err != nil {
		t.Fatal(err)
	}
	if cv.Worker != pv.Worker {
		t.Errorf("child routed to %q, parent placed on %q", cv.Worker, pv.Worker)
	}
	done := waitFleetState(t, c, clock, cv.ID, "done")
	if done.Job == nil || done.Job.Cache != "near_hit" {
		got := ""
		if done.Job != nil {
			got = done.Job.Cache
		}
		t.Errorf("child cache outcome %q, want near_hit", got)
	}
	if got := c.Status().Counters.ParentRoutes; got != 1 {
		t.Errorf("parent_routes counter = %d, want 1", got)
	}

	// An unknown parent reference must not break routing: the child keeps its
	// own spec key, is placed somewhere, and cold-starts on the worker.
	orphan := fastSpec(8)
	orphan.Parent = "fj-999999"
	ov, _, err := c.Submit(orphan, "t1")
	if err != nil {
		t.Fatal(err)
	}
	odone := waitFleetState(t, c, clock, ov.ID, "done")
	if odone.Job == nil || odone.Job.Cache != "miss" {
		t.Errorf("orphan child did not cold-start: %+v", odone.Job)
	}
	if got := c.Status().Counters.ParentRoutes; got != 1 {
		t.Errorf("orphan bumped parent_routes to %d", got)
	}
}

// TestSpecKeyIgnoresParentAndResume pins the routing-key contract the ECO
// path depends on: rewriting the parent reference (or attaching a resume
// pointer during re-route) must not change where a spec ranks, and neither
// must the placer's worker count, which never changes the result.
func TestSpecKeyIgnoresParentAndResume(t *testing.T) {
	base := fastSpec(3)
	k := SpecKey(base)

	wider := base
	wider.Placer.Workers = base.Placer.Workers + 3
	if SpecKey(wider) != k {
		t.Error("placer worker count changed the spec key")
	}

	withParent := base
	withParent.Parent = "job-000042"
	if SpecKey(withParent) != k {
		t.Error("parent reference changed the spec key")
	}
	withResume := base
	withResume.Resume = &service.ResumeSpec{Dir: "/tmp/ckpts"}
	if SpecKey(withResume) != k {
		t.Error("resume pointer changed the spec key")
	}
	perturbed := base
	perturbed.Design.Perturb = &service.PerturbSpec{Seed: 1, CellFrac: 0.01}
	if SpecKey(perturbed) == k {
		t.Error("perturbation did not change the spec key")
	}
}
