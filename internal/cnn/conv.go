package cnn

import (
	"fmt"
	"math"

	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// Conv2D is a 2-D convolution over (channels, height, width) input with
// stride and zero padding. Weights are shaped (outC, inC, kh, kw); the bias
// has one entry per output channel.
type Conv2D struct {
	InC, OutC    int
	KH, KW       int
	Stride       int
	Pad          int
	weight, bias *tensor.Tensor
	gradW, gradB *tensor.Tensor
	// repK/repG, when set via SetReplicaTable, replace the shared kernel
	// per output position: position (oy, ox) computes with repK[oy*repW+ox]
	// and accumulates its weight gradients into repG[oy*repW+ox]. Package
	// microdeep installs them to emulate per-node weight replicas (a
	// locally connected layer).
	repK, repG []*tensor.Tensor
	repW       int
	// Scratch (see batch.go): the packed (C,B,H,W) output and
	// input-gradient blocks, the im2col patch matrix, cached 2-D GEMM views
	// over the weight/output storage, and the packed input reference kept
	// for backwardBatch. Under a replica table, repT is the position-minor
	// copy of the table, valid while repTok holds (the engine clears it
	// whenever the replicas may have changed, like Dense's wT), and xT the
	// sample-minor copy of the input block (see forwardLocal).
	outB, gradInB *tensor.Tensor
	patch         *tensor.Tensor
	w2, out2      *tensor.Tensor
	lastInB       *tensor.Tensor
	repT, xT      *tensor.Tensor
	repTok        bool
}

var (
	_ Layer      = (*Conv2D)(nil)
	_ ParamLayer = (*Conv2D)(nil)
)

// NewConv2D builds a convolution layer with He-initialized weights drawn
// from stream.
func NewConv2D(inC, outC, kh, kw, stride, pad int, stream *rng.Stream) *Conv2D {
	if inC <= 0 || outC <= 0 || kh <= 0 || kw <= 0 || stride <= 0 || pad < 0 {
		panic("cnn: invalid Conv2D geometry")
	}
	c := &Conv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad,
		weight: tensor.New(outC, inC, kh, kw),
		bias:   tensor.New(outC),
		gradW:  tensor.New(outC, inC, kh, kw),
		gradB:  tensor.New(outC),
	}
	std := math.Sqrt(2.0 / float64(inC*kh*kw))
	w := c.weight.Data()
	for i := range w {
		w[i] = stream.NormMeanStd(0, std)
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv%dx%d(%d->%d)", c.KH, c.KW, c.InC, c.OutC)
}

// Params implements ParamLayer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.weight, c.bias} }

// Grads implements ParamLayer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gradW, c.gradB} }

// ZeroGrads implements ParamLayer.
func (c *Conv2D) ZeroGrads() {
	c.gradW.Zero()
	c.gradB.Zero()
}

// Weight returns the shared kernel tensor (outC, inC, kh, kw).
func (c *Conv2D) Weight() *tensor.Tensor { return c.weight }

// Bias returns the bias tensor (outC).
func (c *Conv2D) Bias() *tensor.Tensor { return c.bias }

// KernelAt returns the kernel output position (oy, ox) computes with: its
// replica when a replica table is installed, else the shared weight.
func (c *Conv2D) KernelAt(oy, ox int) *tensor.Tensor {
	if c.repK != nil {
		return c.repK[oy*c.repW+ox]
	}
	return c.weight
}

// SetReplicaTable installs per-position kernel replicas: output position
// (oy, ox) computes with kernels[oy*w+ox] instead of the shared weight and
// accumulates its weight gradients into grads[oy*w+ox]. Every tensor must
// have the layer's (outC, inC, kh, kw) shape, and w must be the output
// width. The bias stays shared.
func (c *Conv2D) SetReplicaTable(kernels, grads []*tensor.Tensor, w int) {
	if len(kernels) != len(grads) || w <= 0 {
		panic("cnn: invalid replica table")
	}
	c.repK, c.repG, c.repW = kernels, grads, w
	c.repTok = false
}

// shadow implements Layer: the clone shares parameters, gradients and
// replica tables with c but owns its forward/backward scratch.
func (c *Conv2D) shadow() Layer {
	return &Conv2D{
		InC: c.InC, OutC: c.OutC, KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad,
		weight: c.weight, bias: c.bias, gradW: c.gradW, gradB: c.gradB,
		repK: c.repK, repG: c.repG, repW: c.repW,
	}
}

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) []int {
	if len(in) != 3 || in[0] != c.InC {
		panic(fmt.Sprintf("cnn: conv input shape %v, want (%d,H,W)", in, c.InC))
	}
	oh := (in[1]+2*c.Pad-c.KH)/c.Stride + 1
	ow := (in[2]+2*c.Pad-c.KW)/c.Stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("cnn: conv output collapses for input %v", in))
	}
	return []int{c.OutC, oh, ow}
}

// Receptive returns the inclusive input window [y0,y1]×[x0,x1] that output
// position (oy, ox) reads (all input channels), padding included.
func (c *Conv2D) Receptive(oy, ox int) (y0, y1, x0, x1 int) {
	y0 = oy*c.Stride - c.Pad
	x0 = ox*c.Stride - c.Pad
	return y0, y0 + c.KH - 1, x0, x0 + c.KW - 1
}

// kernelWindow returns the in-range [k0, k1) slice of kernel offsets for an
// output coordinate o against input extent n (clipping the zero padding).
func kernelWindow(o, stride, pad, ksize, n int) (k0, k1 int) {
	k0 = pad - o*stride
	if k0 < 0 {
		k0 = 0
	}
	k1 = n - o*stride + pad
	if k1 > ksize {
		k1 = ksize
	}
	return k0, k1
}
