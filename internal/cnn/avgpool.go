package cnn

import (
	"fmt"

	"zeiot/internal/tensor"
)

// AvgPool2D is an average pooling layer over (channels, height, width)
// input: each output is the mean of its Size×Size window, which lies wholly
// inside the input (see poolDims).
type AvgPool2D struct {
	Size, Stride int
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
func (p *AvgPool2D) OutShape(in []int) []int { return poolOutShape(p.Size, p.Stride, in) }

// Receptive implements SpatialLayer.
func (p *AvgPool2D) Receptive(oy, ox int) (y0, y1, x0, x1 int) {
	y0 = oy * p.Stride
	x0 = ox * p.Stride
	return y0, y0 + p.Size - 1, x0, x0 + p.Size - 1
}
