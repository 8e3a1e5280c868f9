package density

// SolveHook, when non-nil, runs at the end of every spectral Poisson solve
// with the solver itself, so it can inspect — or deliberately poison — the
// freshly computed potential (Psi) and field (Ex, Ey) buffers. It is a
// build-tag-free fault-injection seam for the divergence-guard tests:
// production code pays one nil check per solve and never sets it.
//
// The hook is read without synchronization from the placement goroutine;
// install it before a run starts and clear it after the run finishes.
var SolveHook func(e *Electro)
