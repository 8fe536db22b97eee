package cnn

import (
	"fmt"

	"zeiot/internal/tensor"
)

// MaxPool2D is a max pooling layer over (channels, height, width) input.
type MaxPool2D struct {
	Size, Stride int
	// Scratch (see batch.go). spw is the reused sparse winner list for the
	// fused first-layer backward.
	bInShape      []int
	lastInB       *tensor.Tensor
	outB, gradInB *tensor.Tensor
	spw           []sparseWinner
	// bkts are per-window-row emission buckets indexed by a winner's row
	// offset inside its window; concatenating them in order after each
	// window row yields winners sorted by (y, x) without a comparison sort.
	bkts [3][]sparseWinner
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
func (p *MaxPool2D) OutShape(in []int) []int {
	if len(in) != 3 {
		panic(fmt.Sprintf("cnn: pool input shape %v, want 3-d", in))
	}
	oh := (in[1]-p.Size)/p.Stride + 1
	ow := (in[2]-p.Size)/p.Stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("cnn: pool output collapses for input %v", in))
	}
	return []int{in[0], oh, ow}
}

// Receptive implements SpatialLayer.
func (p *MaxPool2D) Receptive(oy, ox int) (y0, y1, x0, x1 int) {
	y0 = oy * p.Stride
	x0 = ox * p.Stride
	return y0, y0 + p.Size - 1, x0, x0 + p.Size - 1
}
