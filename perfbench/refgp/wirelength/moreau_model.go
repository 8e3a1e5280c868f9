package wirelength

import "repro/perfbench/refgp/moreau"

// NewMoreauKernel returns the paper's Moreau-envelope kernel with private
// sort scratch. The value is W_e^t(x) + t (the paper's reported model); the
// gradient is the exact envelope gradient of Corollary 1, which the +t
// offset does not affect.
func NewMoreauKernel() Kernel {
	return NewMoreauKernelStats(nil)
}

// NewMoreauKernelStats is NewMoreauKernel with an optional shared branch
// counter; each kernel instance gets private sort scratch but all feed the
// same atomic Stats. stats == nil disables counting.
func NewMoreauKernelStats(stats *moreau.Stats) Kernel {
	ev := moreau.NewEvaluator(64)
	ev.Stats = stats
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

// NewMoreau returns the Moreau-envelope wirelength model ("ME", ours).
func NewMoreau() Model {
	return NewMoreauStats(nil)
}

// NewMoreauStats is NewMoreau with a shared branch counter (see
// NewMoreauKernelStats). The returned model evaluates whole net ranges
// through moreau.GradBatch over the design's SoA lanes — per-net arithmetic
// identical to the kernel path, minus the per-net call overhead.
func NewMoreauStats(stats *moreau.Stats) Model {
	ev := moreau.NewEvaluator(64)
	ev.Stats = stats
	return &kernelModel{name: "ME", kind: ParamMoreauT, batch: ev}
}
