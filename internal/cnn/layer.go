// Package cnn implements a small, from-scratch convolutional neural network:
// Conv2D, MaxPool2D, Dense, ReLU and Flatten layers, softmax cross-entropy,
// and SGD with momentum. It is the "standard CNN" baseline of the paper and
// the numeric core that package microdeep distributes across a wireless
// sensor network.
//
// # One kernel family
//
// Every layer computes over packed blocks of samples, with the kernels of
// batch.go: spatial activations travel as (C,B,H,W) tensors and flat ones as
// (B,F). Training (Trainer, FitParallel) runs blocks of up to blockSize
// samples, and so do PredictAll and Evaluate. Forward and Backward run one
// sample as a block of one: a (C,H,W) sample already has the
// (C,1,H,W) layout and an (F) vector the (1,F) one, so they run on zero-copy
// views. Every sample's result is independent of its block, so all entry
// points agree bit for bit with the plain per-sample loops of ref_test.go.
// Int8 inference (QuantizedNetwork, quant.go) runs the same kernels on
// quantized integers stored as float64, exactly, and agrees at tolerance 0
// with the plain int8 loops of quant_ref_test.go.
//
// # Buffer ownership
//
// Layers keep reusable scratch arenas: the tensors a layer returns are owned
// by the layer and overwritten by its next call, and a layer caches a
// reference to — not a copy of — its forward input. Consequently: (1)
// results that must outlive the next call have to be Clone()d; (2) an input
// must stay unmodified until the matching backward pass has run; (3) a layer
// instance may appear at most once in a network. This is what keeps the
// steady-state hot path allocation-free. For concurrent training, the engine
// gives every in-flight block its own shadow layer stack (see Layer.shadow).
package cnn

import "zeiot/internal/tensor"

// Layer is one stage of the network. Its computing methods are the
// unexported packed kernels of batch.go, so only this package implements
// it.
type Layer interface {
	// OutShape returns the per-sample output shape for a per-sample input
	// shape.
	OutShape(in []int) []int
	// Name returns a short human-readable layer name.
	Name() string
	// forwardBatch consumes a packed block — spatial (C,B,H,W) or flat
	// (B,F) — caches whatever backwardBatch needs, and returns the packed
	// outputs.
	forwardBatch(in *tensor.Tensor) *tensor.Tensor
	// backwardBatch consumes the packed output gradients of the last
	// forwardBatch, accumulates parameter gradients over the block's
	// samples in order, and returns the packed input gradients (nil when
	// withInGrad is false).
	backwardBatch(gradOut *tensor.Tensor, withInGrad bool) *tensor.Tensor
	// shadow returns a layer that shares parameter and gradient tensors
	// (and replica tables) with the receiver but owns its scratch state, so
	// several blocks can be in flight concurrently while gradients still
	// reduce into the one canonical set of tensors.
	shadow() Layer
}

// ParamLayer is a layer with trainable parameters.
type ParamLayer interface {
	Layer
	// Params returns the parameter tensors (mutated by optimizers).
	Params() []*tensor.Tensor
	// Grads returns gradient tensors aligned with Params. Gradients
	// accumulate across backward passes until ZeroGrads.
	Grads() []*tensor.Tensor
	// ZeroGrads clears accumulated gradients.
	ZeroGrads()
}

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	outB, gradInB *tensor.Tensor
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// shadow implements Layer.
func (r *ReLU) shadow() Layer { return &ReLU{} }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) []int { return append([]int(nil), in...) }

// Flatten reshapes a (C,H,W) map to a 1-D vector; a vector passes through.
type Flatten struct {
	bInShape      []int
	outB, gradInB *tensor.Tensor
}

var _ Layer = (*Flatten)(nil)

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// shadow implements Layer.
func (f *Flatten) shadow() Layer { return &Flatten{} }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}
}
