package wirelength

import "repro/internal/moreau"

// NewMoreauKernel returns the paper's Moreau-envelope kernel with private
// sort scratch. The value is W_e^t(x) + t (the paper's reported model); the
// gradient is the exact envelope gradient of Corollary 1, which the +t
// offset does not affect.
func NewMoreauKernel() Kernel {
	ev := moreau.NewEvaluator(64)
	return func(x []float64, t float64, grad []float64) float64 {
		checkKernelArgs(x, t)
		r := ev.EnvelopeGrad(x, t, grad)
		return r.Value + t
	}
}

// NetMoreau evaluates the Moreau-envelope kernel with a throwaway
// evaluator; see NewMoreauKernel for the allocation-free variant.
func NetMoreau(x []float64, t float64, grad []float64) float64 {
	return NewMoreauKernel()(x, t, grad)
}

// NewMoreau returns the Moreau-envelope wirelength model ("ME", ours). It
// evaluates whole net chunks through moreau.GradBatch over the design's SoA
// lanes — per-net arithmetic identical to the kernel path, minus the per-net
// call overhead.
func NewMoreau() Model { return newMoreau(nil) }

// newMoreau builds the ME model around one batch evaluator with private sort
// scratch, reporting into stats (nil disables counting).
func newMoreau(stats *moreau.Stats) *kernelModel {
	ev := moreau.NewEvaluator(64)
	ev.Stats = stats
	return &kernelModel{name: "ME", kind: ParamMoreauT, batch: ev}
}
