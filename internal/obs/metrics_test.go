package obs

import (
	"sync"
	"testing"
	"time"
)

func TestMetricsCountersAndGauges(t *testing.T) {
	m := NewMetrics()
	m.IterationDone(10 * time.Millisecond)
	m.IterationDone(20 * time.Millisecond)
	m.EvalDone()
	m.EvalDone()
	m.EvalDone()

	s := m.Snapshot()
	if s.Evaluations != 3 {
		t.Errorf("evaluations = %d, want 3", s.Evaluations)
	}
}

func TestMetricsPhaseAccumulation(t *testing.T) {
	m := NewMetrics()
	m.observePhase(PhaseSolve, 100*time.Millisecond)
	m.observePhase(PhaseSolve, 50*time.Millisecond)
	m.observePhase(PhaseStamp, 10*time.Millisecond)

	s := m.Snapshot()
	if got := s.PhaseSeconds[PhaseSolve]; got < 0.1499 || got > 0.1501 {
		t.Errorf("PhaseSeconds[solve] = %v, want 0.15", got)
	}
	if s.PhaseCalls[PhaseSolve] != 2 || s.PhaseCalls[PhaseStamp] != 1 {
		t.Errorf("PhaseCalls = %v", s.PhaseCalls)
	}
}

func TestMetricsSinks(t *testing.T) {
	m := NewMetrics()
	var iterSecs []float64
	type phaseObs struct {
		name string
		sec  float64
	}
	var phases []phaseObs
	m.OnIteration = func(sec float64) { iterSecs = append(iterSecs, sec) }
	m.OnPhase = func(name string, sec float64) { phases = append(phases, phaseObs{name, sec}) }

	o := &Observer{Metrics: m}
	it := o.StartIteration(0)
	sp := o.StartPhase(PhaseGather)
	sp.End()
	it.End()

	if len(iterSecs) != 1 {
		t.Errorf("OnIteration called %d times, want 1", len(iterSecs))
	}
	if len(phases) != 1 || phases[0].name != PhaseGather {
		t.Errorf("OnPhase observations = %v, want one %s", phases, PhaseGather)
	}
}

func TestMetricsNamedCounters(t *testing.T) {
	m := NewMetrics()
	m.Count("moreau_degenerate", 3)
	m.Count("moreau_degenerate", 2)
	m.Count("noop", 0) // zero delta must not create the key
	s := m.Snapshot()
	if s.Counters["moreau_degenerate"] != 5 {
		t.Errorf("counter = %d, want 5", s.Counters["moreau_degenerate"])
	}
	if _, ok := s.Counters["noop"]; ok {
		t.Error("zero-delta Count created a key")
	}
}

func TestNilMetricsIsSafe(t *testing.T) {
	var m *Metrics
	m.IterationDone(time.Second)
	m.EvalDone()
	m.Count("x", 1)
	if s := m.Snapshot(); s.Evaluations != 0 || s.Counters != nil {
		t.Errorf("nil snapshot = %+v", s)
	}
}

// TestMetricsConcurrent exercises every mutator under -race.
func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.IterationDone(time.Microsecond)
				m.EvalDone()
				m.observePhase(PhaseStep, time.Microsecond)
				m.Count("c", 1)
				if i%50 == 0 {
					_ = m.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Evaluations != 1600 || s.Counters["c"] != 1600 || s.PhaseCalls[PhaseStep] != 1600 {
		t.Errorf("concurrent totals wrong: %+v", s)
	}
}
