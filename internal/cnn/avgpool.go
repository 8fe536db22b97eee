package cnn

import (
	"fmt"

	"zeiot/internal/tensor"
)

// AvgPool2D is an average pooling layer over (channels, height, width)
// input. Windows clipped by the input edge average over the cells actually
// present, which keeps the operation an exact associative mean — the
// property the distributed executor's in-network aggregation relies on.
type AvgPool2D struct {
	Size, Stride int
	counts       []int // cells actually inside each output's window
	// Scratch (see batch.go).
	bInShape      []int
	outB, gradInB *tensor.Tensor
}

var (
	_ Layer        = (*AvgPool2D)(nil)
	_ SpatialLayer = (*AvgPool2D)(nil)
)

// NewAvgPool2D returns an average pooling layer with the given window size
// and stride. A stride of 0 defaults to the window size.
func NewAvgPool2D(size, stride int) *AvgPool2D {
	if size <= 0 {
		panic("cnn: non-positive pool size")
	}
	if stride == 0 {
		stride = size
	}
	if stride < 0 {
		panic("cnn: negative pool stride")
	}
	return &AvgPool2D{Size: size, Stride: stride}
}

// Name implements Layer.
func (p *AvgPool2D) Name() string { return fmt.Sprintf("avgpool%dx%d", p.Size, p.Size) }

// shadow implements Layer.
func (p *AvgPool2D) shadow() Layer { return &AvgPool2D{Size: p.Size, Stride: p.Stride} }

// OutShape implements Layer.
func (p *AvgPool2D) OutShape(in []int) []int {
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
func (p *AvgPool2D) Receptive(oy, ox int) (y0, y1, x0, x1 int) {
	y0 = oy * p.Stride
	x0 = ox * p.Stride
	return y0, y0 + p.Size - 1, x0, x0 + p.Size - 1
}
