package cnn

import (
	"fmt"

	"zeiot/internal/tensor"
)

// MaxPool2D is a max pooling layer over (channels, height, width) input.
type MaxPool2D struct {
	Size, Stride int
	// Scratch (see batch.go). win holds, per pooled output of the last
	// forward, the flat index into lastInB of the cell its gradient routes
	// to; spw is the reused sparse winner list for the fused first-layer
	// backward and bkts its per-row-offset emission buckets.
	lastInB       *tensor.Tensor
	outB, gradInB *tensor.Tensor
	win           []int
	spw           []sparseWinner
	bkts          [][]sparseWinner
}

var (
	_ Layer        = (*MaxPool2D)(nil)
	_ SpatialLayer = (*MaxPool2D)(nil)
)

// NewMaxPool2D returns a pooling layer with the given window size and
// stride. A stride of 0 defaults to the window size (non-overlapping).
func NewMaxPool2D(size, stride int) *MaxPool2D {
	if size <= 0 {
		panic("cnn: non-positive pool size")
	}
	if stride == 0 {
		stride = size
	}
	if stride < 0 {
		panic("cnn: negative pool stride")
	}
	return &MaxPool2D{Size: size, Stride: stride}
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return fmt.Sprintf("maxpool%dx%d", p.Size, p.Size) }

// shadow implements Layer.
func (p *MaxPool2D) shadow() Layer { return &MaxPool2D{Size: p.Size, Stride: p.Stride} }

// OutShape implements Layer.
func (p *MaxPool2D) OutShape(in []int) []int { return poolOutShape(p.Size, p.Stride, in) }

// poolOutShape is OutShape of both pooling layers.
func poolOutShape(size, stride int, in []int) []int {
	if len(in) != 3 {
		panic(fmt.Sprintf("cnn: pool input shape %v, want 3-d", in))
	}
	oh, ow := poolDims(size, stride, in[1], in[2])
	return []int{in[0], oh, ow}
}

// poolDims returns the output height and width of size×size windows at
// stride over an h×w plane. Every window lies wholly inside the plane: one
// larger than the plane panics rather than being clipped.
func poolDims(size, stride, h, w int) (oh, ow int) {
	if h < size || w < size {
		panic(fmt.Sprintf("cnn: pool output collapses for a %d×%d input", h, w))
	}
	return (h-size)/stride + 1, (w-size)/stride + 1
}

// Receptive implements SpatialLayer.
func (p *MaxPool2D) Receptive(oy, ox int) (y0, y1, x0, x1 int) {
	y0 = oy * p.Stride
	x0 = ox * p.Stride
	return y0, y0 + p.Size - 1, x0, x0 + p.Size - 1
}
