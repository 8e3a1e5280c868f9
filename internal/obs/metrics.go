package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is the metrics registry of one placement run: an evaluation
// counter, cumulative per-phase seconds, and a free-form named-counter map
// for model-specific statistics. All methods are safe for concurrent use and
// nil-receiver safe.
type Metrics struct {
	// OnIteration, when non-nil, receives every iteration's wall time in
	// seconds; OnPhase receives every phase span's name and seconds. Both
	// must be set before the run starts and must be fast (they are invoked
	// from the placement goroutine — typical sinks are the atomic
	// Prometheus histograms of internal/service/telemetry).
	OnIteration func(seconds float64)
	OnPhase     func(phase string, seconds float64)

	evaluations atomic.Int64

	mu         sync.Mutex
	phaseSecs  map[string]float64
	phaseCalls map[string]int64
	counters   map[string]int64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		phaseSecs:  make(map[string]float64),
		phaseCalls: make(map[string]int64),
		counters:   make(map[string]int64),
	}
}

// IterationDone forwards one completed optimizer iteration's duration to
// the OnIteration sink.
func (m *Metrics) IterationDone(d time.Duration) {
	if m != nil && m.OnIteration != nil {
		m.OnIteration(d.Seconds())
	}
}

// EvalDone counts one objective/gradient evaluation (including backtracking
// trials).
func (m *Metrics) EvalDone() {
	if m != nil {
		m.evaluations.Add(1)
	}
}

// Count adds delta to a named counter (model- or caller-specific extras,
// e.g. Moreau kernel branch statistics).
func (m *Metrics) Count(name string, delta int64) {
	if m == nil || delta == 0 {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// observePhase accumulates one phase span and forwards it to OnPhase.
func (m *Metrics) observePhase(name string, d time.Duration) {
	sec := d.Seconds()
	m.mu.Lock()
	m.phaseSecs[name] += sec
	m.phaseCalls[name]++
	m.mu.Unlock()
	if m.OnPhase != nil {
		m.OnPhase(name, sec)
	}
}

// Snapshot is a point-in-time copy of every metric in the registry.
type Snapshot struct {
	Evaluations  int64
	PhaseSeconds map[string]float64
	PhaseCalls   map[string]int64
	Counters     map[string]int64
}

// Snapshot copies the registry. A nil registry yields a zero snapshot.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Evaluations:  m.evaluations.Load(),
		PhaseSeconds: make(map[string]float64),
		PhaseCalls:   make(map[string]int64),
		Counters:     make(map[string]int64),
	}
	m.mu.Lock()
	for k, v := range m.phaseSecs {
		s.PhaseSeconds[k] = v
	}
	for k, v := range m.phaseCalls {
		s.PhaseCalls[k] = v
	}
	for k, v := range m.counters {
		s.Counters[k] = v
	}
	m.mu.Unlock()
	return s
}
