// Package obs is the placer's observability layer: a zero-dependency
// structured logger, a span tracer, and a convergence metrics registry,
// bundled into an Observer that threads through the whole stack (engine,
// flow, service, CLIs).
//
// The three pieces compose but are independently optional:
//
//   - Logger: leveled key/value logging with text and JSON encoders and
//     context.Context propagation. A nil *Logger is a valid no-op sink, so
//     call sites never need nil checks.
//
//   - Tracer: named spans with per-iteration tagging. A run exports as
//     Chrome trace_event JSON (chrome://tracing, Perfetto) or as a JSONL
//     event stream; both round-trip through the matching Read functions.
//
//   - Metrics: convergence gauges (HPWL, overflow, lambda, smoothing
//     parameter, BB step length), counters (iterations, evaluations,
//     checkpoint writes, named extras), and cumulative per-phase seconds,
//     with optional sinks that forward per-iteration and per-phase
//     durations to an external collector (e.g. Prometheus histograms).
//
// The hot path is engineered for a true no-op fast path: with a nil
// Observer (or one with neither Tracer nor Metrics) StartPhase returns a
// zero Span without reading the clock, and Span.End is a single nil check.
package obs
