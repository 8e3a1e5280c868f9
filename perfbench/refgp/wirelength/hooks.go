package wirelength

// GradHook, when non-nil, observes — and may deliberately corrupt — the
// gradient buffers of every whole-design WirelengthGrad call, after the
// model has filled them and before they reach the optimizer. Both the
// serial kernel path and the parallel reduction path call it, so it covers
// every named model. It is a build-tag-free fault-injection seam for the
// divergence-guard tests: production code pays one nil check per gradient
// evaluation and never sets it. Calls with a nil gradX (value-only
// evaluations) are not reported.
//
// The hook is read without synchronization from the placement goroutine;
// install it before a run starts and clear it after the run finishes.
var GradHook func(model string, gradX, gradY []float64)
