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
// evaluates whole net ranges through moreau.GradBatch over the design's SoA
// lanes — per-net arithmetic identical to the kernel path, minus the per-net
// call overhead.
func NewMoreau() Model { return newMoreau(1, nil) }

// newMoreau builds the ME model with one batch evaluator per worker, each
// with private sort scratch and all reporting into stats (nil disables
// counting).
func newMoreau(workers int, stats *moreau.Stats) *kernelModel {
	batch := make([]*moreau.Evaluator, workers)
	for w := range batch {
		batch[w] = moreau.NewEvaluator(64)
		batch[w].Stats = stats
	}
	return newKernelModel("ME", ParamMoreauT, nil, batch)
}
