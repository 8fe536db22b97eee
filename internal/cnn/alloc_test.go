//go:build !race

package cnn

import (
	"testing"

	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// The race detector instruments allocations, so these steady-state alloc
// budgets only hold in normal builds (hence the build tag above).

func allocNet(seed uint64) (*Network, *tensor.Tensor) {
	s := rng.New(seed)
	net := NewNetwork([]int{1, 17, 25},
		NewConv2D(1, 4, 3, 3, 1, 1, s.Split("c")),
		NewReLU(),
		NewMaxPool2D(3, 3),
		NewFlatten(),
		NewDense(4*5*8, 16, s.Split("d1")),
		NewReLU(),
		NewDense(16, 2, s.Split("d2")),
	)
	in := tensor.New(1, 17, 25)
	d := in.Data()
	for i := range d {
		d[i] = s.NormMeanStd(0, 1)
	}
	return net, in
}

// TestForwardAllocFree guards the scratch-buffer design: once warmed, a full
// network forward pass must not allocate (budget ≤ 2 allows for runtime
// noise like stack growth, not for per-layer buffers).
func TestForwardAllocFree(t *testing.T) {
	net, in := allocNet(1)
	net.Forward(in) // warm the scratch buffers
	allocs := testing.AllocsPerRun(100, func() {
		net.Forward(in)
	})
	if allocs > 2 {
		t.Errorf("Network.Forward allocates %.1f objects/op after warm-up, want <= 2", allocs)
	}
}

// TestConvBackwardAllocFree guards Conv2D's scratch reuse on a block of
// one.
func TestConvBackwardAllocFree(t *testing.T) {
	s := rng.New(2)
	c := NewConv2D(1, 4, 3, 3, 1, 1, s.Split("c"))
	in := tensor.New(1, 17, 25)
	d := in.Data()
	for i := range d {
		d[i] = s.NormMeanStd(0, 1)
	}
	block := block1(in)
	out := c.forwardBatch(block)
	gradOut := tensor.New(out.Shape()...)
	g := gradOut.Data()
	for i := range g {
		g[i] = s.NormMeanStd(0, 1)
	}
	c.backwardBatch(gradOut, true) // warm the scratch buffers
	allocs := testing.AllocsPerRun(100, func() {
		c.forwardBatch(block)
		c.backwardBatch(gradOut, true)
	})
	if allocs > 2 {
		t.Errorf("Conv2D forward+backward on a block of one allocates %.1f objects/op after warm-up, want <= 2", allocs)
	}
}

// TestEvaluateAllocFree guards the inference blocks: once warmed, Evaluate
// over a sample set that ends in a partial block must not allocate.
func TestEvaluateAllocFree(t *testing.T) {
	net, _ := allocNet(4)
	s := rng.New(13)
	samples := make([]Sample, 19)
	for i := range samples {
		samples[i] = Sample{Input: randomInput(s, 1, 17, 25), Label: i % 2}
	}
	net.Evaluate(samples) // warm the slot and the scratch buffers
	allocs := testing.AllocsPerRun(20, func() {
		net.Evaluate(samples)
	})
	if allocs > 2 {
		t.Errorf("Network.Evaluate allocates %.1f objects/op after warm-up, want <= 2", allocs)
	}
}

// TestTrainEpochBatchedAllocSteadyState pins the training engine's
// steady-state allocation budget: after the first epoch builds the slot and
// per-layer scratch, a later one-epoch FitParallel must stay within a small
// fixed budget (the trainer, the epoch's permutation and worker
// bookkeeping, not per-sample or per-block buffers — the im2col patch, GEMM
// outputs and winner lists are all reused).
func TestTrainEpochBatchedAllocSteadyState(t *testing.T) {
	net, _ := allocNet(3)
	s := rng.New(11)
	samples := make([]Sample, 64)
	for i := range samples {
		in := tensor.New(1, 17, 25)
		d := in.Data()
		for j := range d {
			d[j] = s.NormMeanStd(0, 1)
		}
		samples[i] = Sample{Input: in, Label: i % 2}
	}
	opt := NewSGD(0.01, 0.9)
	stream := rng.New(12)
	net.FitParallel(samples, 1, 16, 1, opt, stream) // warm slots and scratch
	allocs := testing.AllocsPerRun(20, func() {
		net.FitParallel(samples, 1, 16, 1, opt, stream)
	})
	if allocs > 64 {
		t.Errorf("FitParallel allocates %.1f objects/epoch after warm-up, want <= 64", allocs)
	}
}

// TestQuantForwardAllocFree guards the quantized pipeline's build-time
// buffer sizing: once warmed, Forward and Classify must not allocate at all.
func TestQuantForwardAllocFree(t *testing.T) {
	net, in := allocNet(5)
	qn, err := QuantizeNetwork(net, []Sample{{Input: in, Label: 0}})
	if err != nil {
		t.Fatal(err)
	}
	qn.Forward(in) // warm (build-time buffers only)
	allocs := testing.AllocsPerRun(100, func() {
		qn.Forward(in)
		qn.Classify(in)
	})
	if allocs != 0 {
		t.Errorf("quantized Forward+Classify allocates %.1f objects/op after warm-up, want 0", allocs)
	}
}
