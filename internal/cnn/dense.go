package cnn

import (
	"fmt"
	"math"

	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// Dense is a fully connected layer over 1-D input. Weights are shaped
// (out, in).
type Dense struct {
	In, Out      int
	weight, bias *tensor.Tensor
	gradW, gradB *tensor.Tensor
	// Scratch (see batch.go): packed (B,Out) outputs and
	// (B,In) input gradients, the transposed weight/gradient blocks the
	// batched GEMMs consume, a cached 2-D view of gradW, and the packed
	// input reference kept for backwardBatch.
	outB, gradInB *tensor.Tensor
	wT, godT, gw2 *tensor.Tensor
	lastInB       *tensor.Tensor
	// wTok marks wT as in sync with weight; the engine clears it on entry
	// and after every optimizer step, so the transpose is rebuilt at most
	// once per step instead of once per block.
	wTok bool
}

var (
	_ Layer      = (*Dense)(nil)
	_ ParamLayer = (*Dense)(nil)
)

// NewDense builds a fully connected layer with He-initialized weights drawn
// from stream.
func NewDense(in, out int, stream *rng.Stream) *Dense {
	if in <= 0 || out <= 0 {
		panic("cnn: invalid Dense geometry")
	}
	d := &Dense{
		In: in, Out: out,
		weight: tensor.New(out, in),
		bias:   tensor.New(out),
		gradW:  tensor.New(out, in),
		gradB:  tensor.New(out),
	}
	std := math.Sqrt(2.0 / float64(in))
	w := d.weight.Data()
	for i := range w {
		w[i] = stream.NormMeanStd(0, std)
	}
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d->%d)", d.In, d.Out) }

// Params implements ParamLayer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.weight, d.bias} }

// Grads implements ParamLayer.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.gradW, d.gradB} }

// ZeroGrads implements ParamLayer.
func (d *Dense) ZeroGrads() {
	d.gradW.Zero()
	d.gradB.Zero()
}

// Weight returns the (out, in) weight matrix.
func (d *Dense) Weight() *tensor.Tensor { return d.weight }

// shadow implements Layer.
func (d *Dense) shadow() Layer {
	return &Dense{
		In: d.In, Out: d.Out,
		weight: d.weight, bias: d.bias, gradW: d.gradW, gradB: d.gradB,
	}
}

// OutShape implements Layer.
func (d *Dense) OutShape(in []int) []int {
	if len(in) != 1 || in[0] != d.In {
		panic(fmt.Sprintf("cnn: dense input shape %v, want (%d)", in, d.In))
	}
	return []int{d.Out}
}
