// Package obs is the placer's observability layer: a structured logger
// (the standard library's log/slog), a span tracer, and a per-run metrics
// registry, bundled into an Observer that threads through the whole stack
// (engine, flow, service, CLIs).
//
// The three pieces compose but are independently optional:
//
//   - Logger: a *slog.Logger writing text or JSON records (New). A nil
//     logger field means Nop, which drops every record: Observer.Logger
//     and the service and fleet constructors substitute it, so call sites
//     never need nil checks.
//
//   - Tracer: named spans with per-iteration tagging. A run exports as
//     Chrome trace_event JSON (chrome://tracing, Perfetto) or as a JSONL
//     event stream; both round-trip through the matching Read functions.
//
//   - Metrics: an evaluation counter, named counters (model-specific
//     extras), and cumulative per-phase seconds, with optional sinks that
//     forward per-iteration and per-phase durations to an external
//     collector (e.g. Prometheus histograms). Convergence samples live in
//     the placer's TrajectoryPoint, iteration and checkpoint counts in its
//     Result.
//
// The hot path is engineered for a true no-op fast path: with a nil
// Observer (or one with neither Tracer nor Metrics) StartPhase returns a
// zero Span without reading the clock, and Span.End is a single nil check.
package obs
