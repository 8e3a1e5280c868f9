package obs

import "time"

// Phase names used by the engine's per-iteration sub-spans (the Table-III
// style runtime breakdown) and the coarse flow phases. The five engine
// phases are the ones the service exports per-phase latency histograms for.
const (
	PhaseWirelength = "wirelength"     // model gradient (per eval)
	PhaseStamp      = "density-stamp"  // smoothed stamping + overflow
	PhaseSolve      = "poisson-solve"  // spectral solve + energy
	PhaseGather     = "field-gather"   // per-cell field sampling
	PhaseStep       = "optimizer-step" // whole optimizer step (evals nest inside)

	PhaseIteration = "iteration" // umbrella span, one per loop iteration
	PhaseSetup     = "gp-setup"  // grid, fillers, init, lambda calibration
	PhaseLegalize  = "legalize"
	PhaseDetailed  = "detailed"

	// PhaseGuardRollback wraps a divergence-guard rollback: snapshot
	// lookup, optimizer/schedule restore, and step shrink. Rare by
	// construction, so it gets a span (visible in traces) but no histogram.
	PhaseGuardRollback = "guard-rollback"

	// Spectral-solver sub-spans (inside PhaseSolve).
	PhaseDCT      = "dct-forward"
	PhaseSynthPsi = "synth-psi"
	PhaseSynthEx  = "synth-ex"
	PhaseSynthEy  = "synth-ey"
)

// EnginePhases lists the per-iteration engine phases in breakdown order;
// the service registers one latency histogram per entry.
func EnginePhases() []string {
	return []string{PhaseWirelength, PhaseStamp, PhaseSolve, PhaseGather, PhaseStep}
}

// Observer bundles the three observability pieces for one run. Any field
// may be nil; a nil *Observer disables everything. It is plumbed through
// placer.Config and carried by the engine into the density solver.
type Observer struct {
	Log     *Logger
	Trace   *Tracer
	Metrics *Metrics
}

// Logger returns the observer's logger; nil-safe (a nil logger no-ops).
func (o *Observer) Logger() *Logger {
	if o == nil {
		return nil
	}
	return o.Log
}

// Span is an in-flight phase measurement started by StartPhase or
// StartIteration. The zero Span is inert: End on it is a single nil check.
type Span struct {
	o     *Observer
	name  string
	iter  int
	start time.Time
	// iteration marks the umbrella span, which feeds the iteration-latency
	// metric instead of the per-phase accumulator.
	iteration bool
}

// StartPhase begins a named span. When the observer is nil or has neither
// tracer nor metrics the zero Span is returned without reading the clock —
// the no-op fast path the engine relies on.
func (o *Observer) StartPhase(name string) Span {
	if o == nil || (o.Trace == nil && o.Metrics == nil) {
		return Span{}
	}
	iter := -1
	if o.Trace != nil {
		iter = int(o.Trace.iter.Load())
	}
	return Span{o: o, name: name, iter: iter, start: time.Now()}
}

// StartIteration begins iteration k's umbrella span and tags subsequent
// spans with k. Its End records the iteration-latency metric.
func (o *Observer) StartIteration(k int) Span {
	if o == nil || (o.Trace == nil && o.Metrics == nil) {
		return Span{}
	}
	if o.Trace != nil {
		o.Trace.iter.Store(int64(k))
	}
	return Span{o: o, name: PhaseIteration, iter: k, start: time.Now(), iteration: true}
}

// End completes the span, feeding the tracer buffer and the metrics
// accumulators. Safe on the zero Span.
func (s Span) End() {
	if s.o == nil {
		return
	}
	d := time.Since(s.start)
	if t := s.o.Trace; t != nil {
		t.add(s.name, s.iter, s.start, d)
	}
	if m := s.o.Metrics; m != nil {
		if s.iteration {
			m.IterationDone(d)
		} else {
			m.observePhase(s.name, d)
		}
	}
}
