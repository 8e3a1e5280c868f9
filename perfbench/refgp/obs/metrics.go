package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Point is one convergence sample of a placement run. A non-positive HPWL
// means "not measured this iteration" (exact HPWL is only computed when a
// trajectory hook or recorder is active) and leaves the HPWL gauge as is.
type Point struct {
	Iter     int
	HPWL     float64
	Overflow float64
	Lambda   float64
	Param    float64 // smoothing parameter (gamma or the Moreau t)
	Step     float64 // optimizer step length (Barzilai-Borwein alpha)
}

// atomicFloat is a float64 with atomic load/store through its bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Metrics is the convergence metrics registry of one placement run: live
// gauges, monotonic counters, cumulative per-phase seconds, and a free-form
// named-counter map for model-specific statistics. All methods are safe for
// concurrent use and nil-receiver safe.
type Metrics struct {
	// OnIteration, when non-nil, receives every iteration's wall time in
	// seconds; OnPhase receives every phase span's name and seconds. Both
	// must be set before the run starts and must be fast (they are invoked
	// from the placement goroutine — typical sinks are the atomic
	// Prometheus histograms of internal/service/telemetry).
	OnIteration func(seconds float64)
	OnPhase     func(phase string, seconds float64)

	iterations  atomic.Int64
	evaluations atomic.Int64
	checkpoints atomic.Int64

	iter                               atomic.Int64
	hpwl, overflow, lambda, param, bbs atomicFloat

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

// IterationDone counts one completed optimizer iteration and forwards its
// duration to the OnIteration sink.
func (m *Metrics) IterationDone(d time.Duration) {
	if m == nil {
		return
	}
	m.iterations.Add(1)
	if m.OnIteration != nil {
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

// CheckpointDone counts one snapshot written to disk.
func (m *Metrics) CheckpointDone() {
	if m != nil {
		m.checkpoints.Add(1)
	}
}

// Record updates the convergence gauges from one sample. HPWL <= 0 leaves
// the HPWL gauge untouched (see Point).
func (m *Metrics) Record(p Point) {
	if m == nil {
		return
	}
	m.iter.Store(int64(p.Iter))
	m.overflow.Store(p.Overflow)
	m.lambda.Store(p.Lambda)
	m.param.Store(p.Param)
	m.bbs.Store(p.Step)
	if p.HPWL > 0 {
		m.hpwl.Store(p.HPWL)
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
	Iterations  int64
	Evaluations int64
	Checkpoints int64

	Iter     int
	HPWL     float64
	Overflow float64
	Lambda   float64
	Param    float64
	Step     float64

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
		Iterations:   m.iterations.Load(),
		Evaluations:  m.evaluations.Load(),
		Checkpoints:  m.checkpoints.Load(),
		Iter:         int(m.iter.Load()),
		HPWL:         m.hpwl.Load(),
		Overflow:     m.overflow.Load(),
		Lambda:       m.lambda.Load(),
		Param:        m.param.Load(),
		Step:         m.bbs.Load(),
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
