// Package cnn implements a small, from-scratch convolutional neural network:
// Conv2D, MaxPool2D, Dense, ReLU, softmax cross-entropy, and SGD with
// momentum. It is the "standard CNN" baseline of the paper and the numeric
// core that package microdeep distributes across a wireless sensor network.
//
// Tensors flow through layers in (channels, height, width) layout; Dense
// layers operate on flattened 1-D activations. All layers record what they
// need during Forward so Backward can run without re-supplying inputs;
// Forward and Backward process one sample at a time, which keeps the
// per-unit computation model identical to the distributed execution in
// package microdeep. Training (Trainer, FitParallel) runs packed blocks of
// samples through the bit-identical batched kernels of batch.go wherever the
// layer stack allows.
//
// # Buffer ownership
//
// Layers keep reusable scratch arenas: the tensor returned by Forward (and
// by Backward) is owned by the layer and is overwritten by that layer's next
// Forward (Backward) call, and a layer caches a reference to — not a copy
// of — its forward input. Consequently: (1) results that must outlive the
// next call have to be Clone()d; (2) an input must stay unmodified until the
// matching Backward has run; (3) a layer instance may appear at most once in
// a network. This is what keeps the steady-state hot path allocation-free.
// For concurrent training, the engine gives every in-flight block its own
// shadow layer stack (see shadowLayer).
package cnn

import (
	"fmt"
	"math"

	"zeiot/internal/tensor"
)

// Layer is one stage of the network.
type Layer interface {
	// Forward computes the layer output for in, caching whatever Backward
	// needs. The returned tensor is scratch owned by the layer (see the
	// package comment on buffer ownership).
	Forward(in *tensor.Tensor) *tensor.Tensor
	// Backward consumes dLoss/dOutput and returns dLoss/dInput, also
	// accumulating parameter gradients where applicable. The returned
	// tensor is scratch owned by the layer.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// OutShape returns the output shape for a given input shape.
	OutShape(in []int) []int
	// Name returns a short human-readable layer name.
	Name() string
}

// ParamLayer is a layer with trainable parameters.
type ParamLayer interface {
	Layer
	// Params returns the parameter tensors (mutated by optimizers).
	Params() []*tensor.Tensor
	// Grads returns gradient tensors aligned with Params. Gradients
	// accumulate across Backward calls until ZeroGrads.
	Grads() []*tensor.Tensor
	// ZeroGrads clears accumulated gradients.
	ZeroGrads()
}

// SpatialLayer is a layer whose output units sit at (channel, y, x)
// coordinates and read a bounded receptive field of input units. Package
// microdeep uses this to build the CNN unit graph it assigns to sensor
// nodes.
type SpatialLayer interface {
	Layer
	// Receptive returns, for output position (oy, ox), the inclusive input
	// window [y0,y1]×[x0,x1] it reads (all input channels).
	Receptive(oy, ox int) (y0, y1, x0, x1 int)
}

// shadowLayer is implemented by every built-in layer. shadow returns a
// layer that shares parameter and gradient tensors (and replica tables) with
// the receiver but owns its forward/backward scratch state, so several
// samples can be in flight concurrently while gradients still reduce into
// the one canonical set of tensors.
type shadowLayer interface {
	shadow() Layer
}

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	out, gradIn *tensor.Tensor
	// Batched-path scratch (see batch.go).
	outB, gradInB *tensor.Tensor
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// shadow implements shadowLayer.
func (r *ReLU) shadow() Layer { return &ReLU{} }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) []int { return append([]int(nil), in...) }

// Forward implements Layer. The pass mask Backward needs is recovered from
// the cached output (out[i] > 0 exactly when in[i] > 0), so no separate mask
// array is maintained. The select is computed with bit masks: the sign test
// on activation-sized arrays is data-dependent, and the mispredicted branch
// was costing more than the arithmetic it guarded.
func (r *ReLU) Forward(in *tensor.Tensor) *tensor.Tensor {
	r.out = tensor.Ensure(r.out, in.Shape()...)
	data := r.out.Data()
	for i, v := range in.Data() {
		t := math.Float64bits(v)
		// keep = 1 iff v > 0: nonzero (t|-t has the top bit set) and the
		// sign bit clear. t&-keep is then v's bits or +0.
		keep := ((t | -t) >> 63) &^ (t >> 63)
		data[i] = math.Float64frombits(t & -keep)
	}
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if r.out == nil || r.out.Size() != gradOut.Size() {
		panic(fmt.Sprintf("cnn: ReLU backward before forward (grad %d)", gradOut.Size()))
	}
	r.gradIn = tensor.Ensure(r.gradIn, gradOut.Shape()...)
	data := r.gradIn.Data()
	outd := r.out.Data()
	for i, g := range gradOut.Data() {
		// out is v or +0, so "did the unit fire" is just out != 0; the same
		// branchless select passes g through or writes +0.
		t := math.Float64bits(outd[i])
		mask := -((t | -t) >> 63)
		data[i] = math.Float64frombits(math.Float64bits(g) & mask)
	}
	return r.gradIn
}

// Flatten reshapes any input to a 1-D vector. Forward and Backward return
// zero-copy views over the input and gradient data respectively.
type Flatten struct {
	inShape     []int
	out, gradIn *tensor.Tensor
	// Batched-path scratch (see batch.go).
	bInShape      []int
	outB, gradInB *tensor.Tensor
}

var _ Layer = (*Flatten)(nil)

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// shadow implements shadowLayer.
func (f *Flatten) shadow() Layer { return &Flatten{} }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}
}

// sameBacking reports whether two slices share the same backing array start
// and length — the cheap test that lets Flatten reuse its cached view.
func sameBacking(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Forward implements Layer.
func (f *Flatten) Forward(in *tensor.Tensor) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], in.Shape()...)
	d := in.Data()
	if f.out == nil || !sameBacking(f.out.Data(), d) {
		f.out = tensor.FromSlice(d, len(d))
	}
	return f.out
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	d := gradOut.Data()
	if f.gradIn == nil || !sameBacking(f.gradIn.Data(), d) || !shapeEq(f.gradIn.Shape(), f.inShape) {
		f.gradIn = tensor.FromSlice(d, f.inShape...)
	}
	return f.gradIn
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
