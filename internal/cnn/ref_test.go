package cnn

import (
	"fmt"
	"math"
	"testing"

	"zeiot/internal/tensor"
)

// The per-sample reference: plain loops over one (C,H,W) or (F) sample per
// layer, with no unrolling, fusion or packing. Every result bit the packed
// kernels produce is pinned against these loops, so they spell out the
// accumulation order that fixes the float bits:
//
//   - Conv2D: each output element starts at its bias and adds its in-range
//     window terms in ascending (ic, ky, kx) order, padding skipped. Under a
//     replica table position (oy, ox) uses repK[oy*repW+ox]. Backward walks
//     (oy, ox, oc) and skips zero gradients; gradB, gradW (repG[p] under a
//     replica table) and the input gradient accumulate in that order.
//   - Dense: out[o] is the ascending-feature dot product plus the bias.
//     Backward adds the whole gradient row into gradB, then per nonzero
//     output gradient one row into gradW and one into the input gradient.
//   - MaxPool2D: a left max fold over the window in scan order; backward
//     routes each nonzero gradient to the first window cell equal to the
//     max.
//   - AvgPool2D: the window mean; backward spreads g/count.
//   - ReLU: v for v > 0, +0 otherwise; backward passes g where the output
//     is nonzero.
//   - Flatten: a reshape.

// refForward runs in through net's layers with the reference loops and
// returns every activation: acts[0] is in and acts[i+1] the output of layer
// i, so the logits are acts[len(acts)-1].
func refForward(net *Network, in *tensor.Tensor) []*tensor.Tensor {
	acts := []*tensor.Tensor{in}
	x := in
	for _, l := range net.layers {
		switch l := l.(type) {
		case *Conv2D:
			x = refConvForward(l, x)
		case *Dense:
			x = refDenseForward(l, x)
		case *MaxPool2D:
			x = refMaxPoolForward(l, x)
		case *AvgPool2D:
			x = refAvgPoolForward(l, x)
		case *ReLU:
			x = refReLUForward(x)
		case *Flatten:
			x = tensor.FromSlice(x.Data(), x.Size())
		default:
			panic(fmt.Sprintf("cnn: no reference for layer %s", l.Name()))
		}
		acts = append(acts, x)
	}
	return acts
}

// refBackward propagates dLoss/dLogits back through net over the
// activations of refForward, accumulating every parameter gradient (and
// replica gradient) into net's tensors, and returns dLoss/dInput.
func refBackward(net *Network, acts []*tensor.Tensor, grad *tensor.Tensor) *tensor.Tensor {
	g := grad
	for i := len(net.layers) - 1; i >= 0; i-- {
		in, out := acts[i], acts[i+1]
		switch l := net.layers[i].(type) {
		case *Conv2D:
			g = refConvBackward(l, in, g)
		case *Dense:
			g = refDenseBackward(l, in, g)
		case *MaxPool2D:
			g = refMaxPoolBackward(l, in, out, g)
		case *AvgPool2D:
			g = refAvgPoolBackward(l, in, g)
		case *ReLU:
			g = refReLUBackward(out, g)
		case *Flatten:
			g = tensor.FromSlice(g.Data(), in.Shape()...)
		default:
			panic(fmt.Sprintf("cnn: no reference for layer %s", l.Name()))
		}
	}
	return g
}

// refTrainSample runs one sample forward and backward through the
// reference, accumulating its gradients into net, and returns its loss.
func refTrainSample(net *Network, s Sample) float64 {
	acts := refForward(net, s.Input)
	loss, grad := CrossEntropy(acts[len(acts)-1], s.Label)
	refBackward(net, acts, grad)
	return loss
}

func refConvKernel(c *Conv2D, oy, ox int) (k, gk []float64) {
	if c.repK != nil {
		return c.repK[oy*c.repW+ox].Data(), c.repG[oy*c.repW+ox].Data()
	}
	return c.weight.Data(), c.gradW.Data()
}

func refConvForward(c *Conv2D, in *tensor.Tensor) *tensor.Tensor {
	h, w := in.Dim(1), in.Dim(2)
	oh := (h+2*c.Pad-c.KH)/c.Stride + 1
	ow := (w+2*c.Pad-c.KW)/c.Stride + 1
	out := tensor.New(c.OutC, oh, ow)
	ind, outd, bd := in.Data(), out.Data(), c.bias.Data()
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			kd, _ := refConvKernel(c, oy, ox)
			for oc := 0; oc < c.OutC; oc++ {
				sum := bd[oc]
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.KH; ky++ {
						iy := oy*c.Stride - c.Pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < c.KW; kx++ {
							ix := ox*c.Stride - c.Pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							sum += kd[((oc*c.InC+ic)*c.KH+ky)*c.KW+kx] * ind[(ic*h+iy)*w+ix]
						}
					}
				}
				outd[(oc*oh+oy)*ow+ox] = sum
			}
		}
	}
	return out
}

func refConvBackward(c *Conv2D, in, gradOut *tensor.Tensor) *tensor.Tensor {
	h, w := in.Dim(1), in.Dim(2)
	oh, ow := gradOut.Dim(1), gradOut.Dim(2)
	gradIn := tensor.New(c.InC, h, w)
	ind, god, gid, gbd := in.Data(), gradOut.Data(), gradIn.Data(), c.gradB.Data()
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			kd, gkd := refConvKernel(c, oy, ox)
			for oc := 0; oc < c.OutC; oc++ {
				g := god[(oc*oh+oy)*ow+ox]
				if g == 0 {
					continue
				}
				gbd[oc] += g
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.KH; ky++ {
						iy := oy*c.Stride - c.Pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < c.KW; kx++ {
							ix := ox*c.Stride - c.Pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							k := ((oc*c.InC+ic)*c.KH+ky)*c.KW + kx
							i := (ic*h+iy)*w + ix
							gkd[k] += g * ind[i]
							gid[i] += g * kd[k]
						}
					}
				}
			}
		}
	}
	return gradIn
}

func refDenseForward(d *Dense, in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(d.Out)
	xd, wd, bd, od := in.Data(), d.weight.Data(), d.bias.Data(), out.Data()
	for o := 0; o < d.Out; o++ {
		sum := 0.0
		for i := 0; i < d.In; i++ {
			sum += wd[o*d.In+i] * xd[i]
		}
		od[o] = sum + bd[o]
	}
	return out
}

func refDenseBackward(d *Dense, in, gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(d.In)
	xd, wd, god := in.Data(), d.weight.Data(), gradOut.Data()
	gbd, gwd, gid := d.gradB.Data(), d.gradW.Data(), gradIn.Data()
	for o, g := range god {
		gbd[o] += g
	}
	for o, g := range god {
		if g == 0 {
			continue
		}
		for i := 0; i < d.In; i++ {
			gwd[o*d.In+i] += g * xd[i]
		}
	}
	for o, g := range god {
		if g == 0 {
			continue
		}
		for i := 0; i < d.In; i++ {
			gid[i] += g * wd[o*d.In+i]
		}
	}
	return gradIn
}

// refPoolWindow returns pooling window (oy, ox)'s input rows [y0, y1) and
// columns [x0, x1); OutShape keeps every window inside the input.
func refPoolWindow(size, stride, oy, ox int) (y0, y1, x0, x1 int) {
	y0, x0 = oy*stride, ox*stride
	return y0, y0 + size, x0, x0 + size
}

func refMaxPoolForward(p *MaxPool2D, in *tensor.Tensor) *tensor.Tensor {
	ch, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	oh, ow := (h-p.Size)/p.Stride+1, (w-p.Size)/p.Stride+1
	out := tensor.New(ch, oh, ow)
	ind, outd := in.Data(), out.Data()
	for c := 0; c < ch; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				y0, y1, x0, x1 := refPoolWindow(p.Size, p.Stride, oy, ox)
				best := ind[(c*h+y0)*w+x0]
				for y := y0; y < y1; y++ {
					for x := x0; x < x1; x++ {
						best = max(best, ind[(c*h+y)*w+x])
					}
				}
				outd[(c*oh+oy)*ow+ox] = best
			}
		}
	}
	return out
}

func refMaxPoolBackward(p *MaxPool2D, in, out, gradOut *tensor.Tensor) *tensor.Tensor {
	ch, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	oh, ow := out.Dim(1), out.Dim(2)
	gradIn := tensor.New(ch, h, w)
	ind, outd, god, gid := in.Data(), out.Data(), gradOut.Data(), gradIn.Data()
	for c := 0; c < ch; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				o := (c*oh+oy)*ow + ox
				if god[o] == 0 {
					continue
				}
				y0, y1, x0, x1 := refPoolWindow(p.Size, p.Stride, oy, ox)
				t := (c*h+y0)*w + x0
			find:
				for y := y0; y < y1; y++ {
					for x := x0; x < x1; x++ {
						if ind[(c*h+y)*w+x] == outd[o] {
							t = (c*h+y)*w + x
							break find
						}
					}
				}
				gid[t] += god[o]
			}
		}
	}
	return gradIn
}

func refAvgPoolForward(p *AvgPool2D, in *tensor.Tensor) *tensor.Tensor {
	ch, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	oh, ow := (h-p.Size)/p.Stride+1, (w-p.Size)/p.Stride+1
	out := tensor.New(ch, oh, ow)
	ind, outd := in.Data(), out.Data()
	for c := 0; c < ch; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				y0, y1, x0, x1 := refPoolWindow(p.Size, p.Stride, oy, ox)
				sum := 0.0
				for y := y0; y < y1; y++ {
					for x := x0; x < x1; x++ {
						sum += ind[(c*h+y)*w+x]
					}
				}
				outd[(c*oh+oy)*ow+ox] = sum / float64((y1-y0)*(x1-x0))
			}
		}
	}
	return out
}

func refAvgPoolBackward(p *AvgPool2D, in, gradOut *tensor.Tensor) *tensor.Tensor {
	ch, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	oh, ow := gradOut.Dim(1), gradOut.Dim(2)
	gradIn := tensor.New(ch, h, w)
	god, gid := gradOut.Data(), gradIn.Data()
	for c := 0; c < ch; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				y0, y1, x0, x1 := refPoolWindow(p.Size, p.Stride, oy, ox)
				g := god[(c*oh+oy)*ow+ox] / float64((y1-y0)*(x1-x0))
				for y := y0; y < y1; y++ {
					for x := x0; x < x1; x++ {
						gid[(c*h+y)*w+x] += g
					}
				}
			}
		}
	}
	return gradIn
}

func refReLUForward(in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(in.Shape()...)
	od := out.Data()
	for i, v := range in.Data() {
		// v when v > 0, else +0: the sign bit of a kept value is clear, and
		// NaN with its sign bit clear is kept, as in the layers.
		t := math.Float64bits(v)
		if t != 0 && t>>63 == 0 {
			od[i] = v
		}
	}
	return out
}

func refReLUBackward(out, gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(gradOut.Shape()...)
	gid, od := gradIn.Data(), out.Data()
	for i, g := range gradOut.Data() {
		if math.Float64bits(od[i]) != 0 {
			gid[i] = g
		}
	}
	return gradIn
}

// requireSameGrads fails unless every gradient tensor of a, replica
// gradients included, is bit-identical to b's.
func requireSameGrads(t *testing.T, a, b *Network, ctx string) {
	t.Helper()
	for li, l := range a.layers {
		pa, ok := l.(ParamLayer)
		if !ok {
			continue
		}
		pb := b.layers[li].(ParamLayer)
		for gi, ga := range pa.Grads() {
			if !tensor.Equal(ga, pb.Grads()[gi], 0) {
				t.Fatalf("%s: layer %d (%s) gradient %d differs from the reference", ctx, li, l.Name(), gi)
			}
		}
		if ca, ok := l.(*Conv2D); ok {
			cb := b.layers[li].(*Conv2D)
			for p, g := range ca.repG {
				if !tensor.Equal(g, cb.repG[p], 0) {
					t.Fatalf("%s: layer %d replica gradient %d differs from the reference", ctx, li, p)
				}
			}
		}
	}
}

// TestReferenceMatchesNetwork pins the reference to the network's own
// arithmetic at tolerance 0 on every batchNets() stack: the logits of every
// sample, and every parameter and replica gradient after all samples'
// backward passes have accumulated in order.
func TestReferenceMatchesNetwork(t *testing.T) {
	for name, tc := range batchNets() {
		t.Run(name, func(t *testing.T) {
			net, ref := tc.build(), tc.build()
			for i, s := range tc.samples {
				got := net.Forward(s.Input)
				acts := refForward(ref, s.Input)
				want := acts[len(acts)-1]
				if !tensor.Equal(got, want, 0) {
					t.Fatalf("sample %d: logits %v, reference %v", i, got.Data(), want.Data())
				}
				_, grad := CrossEntropy(got, s.Label)
				net.Backward(grad)
				_, refGrad := CrossEntropy(want, s.Label)
				refBackward(ref, acts, refGrad)
			}
			requireSameGrads(t, net, ref, name)
		})
	}
}
