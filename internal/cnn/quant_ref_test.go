package cnn

import (
	"fmt"
	"math"

	"zeiot/internal/tensor"
)

// The int8 oracle: plain integer loops over one sample — int8 activations
// and weights, int32 accumulators, no packing and no float arithmetic past
// the input quantizer. refQuantize lowers a float network on its own,
// calibrating through the float reference loops of ref_test.go, and
// QuantizedNetwork must reproduce its logits at tolerance 0, the role
// ref_test.go plays for the float kernels:
//
//   - Conv2D/Dense: each accumulator starts at the int32 bias and adds its
//     int8×int8 terms; interior layers requantize to int8, the final Dense
//     keeps the int32 accumulators.
//   - ReLU and MaxPool2D: clamp at zero and a window max, on int8.
//   - AvgPool2D: floor((2·sum + count) / (2·count)), the round-half-up mean.
//   - Flatten: a no-op on one contiguous sample.

// refQLayer is one int8 stage of the oracle.
type refQLayer interface {
	forward(in []int8) []int8
}

// refQuantNet is the oracle's lowering of a float network.
type refQuantNet struct {
	inScale float64
	layers  []refQLayer
	last    *refQDense
}

// refQuantize lowers net with QuantizeNetwork's scales, calibrated sample by
// sample through refForward. It panics on any network QuantizeNetwork
// refuses.
func refQuantize(net *Network, calib []Sample) *refQuantNet {
	actMax := make([]float64, len(net.layers))
	inMax := 0.0
	for _, s := range calib {
		acts := refForward(net, s.Input)
		inMax = max(inMax, maxAbs(acts[0].Data()))
		for li := range net.layers {
			actMax[li] = max(actMax[li], maxAbs(acts[li+1].Data()))
		}
	}
	shape := net.inShape
	scale := qscale(inMax)
	r := &refQuantNet{inScale: scale}
	for li, l := range net.layers {
		out := l.OutShape(shape)
		vol := 1
		for _, d := range out {
			vol *= d
		}
		switch t := l.(type) {
		case *Conv2D:
			w, b, ws := refQuantParams(t.weight, t.bias, scale)
			outScale := qscale(actMax[li])
			r.layers = append(r.layers, &refQConv{
				c: t, inH: shape[1], inW: shape[2], outH: out[1], outW: out[2],
				w: w, b: b, mult: refQMult(scale, ws, outScale), out: make([]int8, vol),
			})
			scale = outScale
		case *Dense:
			w, b, ws := refQuantParams(t.weight, t.bias, scale)
			d := &refQDense{in: t.In, out: t.Out, w: w, b: b, acc: make([]int32, t.Out)}
			if li == len(net.layers)-1 {
				r.last = d
				break
			}
			outScale := qscale(actMax[li])
			d.mult, d.out8 = refQMult(scale, ws, outScale), make([]int8, t.Out)
			r.layers = append(r.layers, d)
			scale = outScale
		case *ReLU:
			r.layers = append(r.layers, refQReLU{})
		case *MaxPool2D:
			r.layers = append(r.layers, &refQPool{size: t.Size, stride: t.Stride,
				ch: shape[0], inH: shape[1], inW: shape[2], outH: out[1], outW: out[2], out: make([]int8, vol)})
		case *AvgPool2D:
			r.layers = append(r.layers, &refQPool{avg: true, size: t.Size, stride: t.Stride,
				ch: shape[0], inH: shape[1], inW: shape[2], outH: out[1], outW: out[2], out: make([]int8, vol)})
		case *Flatten:
		default:
			panic(fmt.Sprintf("cnn: no int8 oracle for layer %s", l.Name()))
		}
		shape = out
	}
	if r.last == nil {
		panic("cnn: int8 oracle needs a final dense layer")
	}
	return r
}

// refQuantParams quantizes a layer's weights to int8 at their own scale ws
// and its biases to int32 at the accumulator scale inScale·ws.
func refQuantParams(w, b *tensor.Tensor, inScale float64) (qw []int8, qb []int32, ws float64) {
	ws = qscale(maxAbs(w.Data()))
	for _, v := range w.Data() {
		qw = append(qw, clampRound8(v/ws))
	}
	for _, v := range b.Data() {
		qb = append(qb, int32(math.Round(v/(inScale*ws))))
	}
	return qw, qb, ws
}

// refQMult is the fixed-point multiplier taking an accumulator at
// inScale·ws to the output scale.
func refQMult(inScale, ws, outScale float64) int64 {
	return int64(math.Round(inScale * ws / outScale * (1 << qShift)))
}

// logits quantizes in and returns the int32 logit accumulators.
func (r *refQuantNet) logits(in *tensor.Tensor) []int32 {
	inv := 1 / r.inScale
	x := make([]int8, in.Size())
	for i, v := range in.Data() {
		x[i] = clampRound8(v * inv)
	}
	for _, l := range r.layers {
		x = l.forward(x)
	}
	return r.last.forward32(x)
}

// refQConv is an int8 convolution with int32 accumulation.
type refQConv struct {
	c                    *Conv2D // geometry only
	inH, inW, outH, outW int
	w                    []int8 // (outC, inC, kh, kw)
	b                    []int32
	mult                 int64
	out                  []int8
}

func (q *refQConv) forward(in []int8) []int8 {
	c := q.c
	idx := 0
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < q.outH; oy++ {
			ky0, ky1 := kernelWindow(oy, c.Stride, c.Pad, c.KH, q.inH)
			for ox := 0; ox < q.outW; ox++ {
				kx0, kx1 := kernelWindow(ox, c.Stride, c.Pad, c.KW, q.inW)
				acc := q.b[oc]
				for ic := 0; ic < c.InC; ic++ {
					for ky := ky0; ky < ky1; ky++ {
						iy := oy*c.Stride - c.Pad + ky
						for kx := kx0; kx < kx1; kx++ {
							ix := ox*c.Stride - c.Pad + kx
							wv := q.w[((oc*c.InC+ic)*c.KH+ky)*c.KW+kx]
							acc += int32(wv) * int32(in[(ic*q.inH+iy)*q.inW+ix])
						}
					}
				}
				q.out[idx] = requantize(acc, q.mult)
				idx++
			}
		}
	}
	return q.out
}

// refQDense is an int8 fully connected layer; the network's final one keeps
// its int32 accumulators (forward32), interior ones requantize.
type refQDense struct {
	in, out int
	w       []int8 // (out, in)
	b       []int32
	mult    int64
	acc     []int32
	out8    []int8
}

func (d *refQDense) forward32(in []int8) []int32 {
	for o := 0; o < d.out; o++ {
		acc := d.b[o]
		for i, w := range d.w[o*d.in : (o+1)*d.in] {
			acc += int32(w) * int32(in[i])
		}
		d.acc[o] = acc
	}
	return d.acc
}

func (d *refQDense) forward(in []int8) []int8 {
	for o, acc := range d.forward32(in) {
		d.out8[o] = requantize(acc, d.mult)
	}
	return d.out8
}

// refQReLU clamps negatives in place.
type refQReLU struct{}

func (refQReLU) forward(in []int8) []int8 {
	for i, v := range in {
		in[i] = max(v, 0)
	}
	return in
}

// refQPool is an int8 max pool, or with avg the round-half-up integer mean
// over the cells of each window. halfway counts the means that were exact
// half-way points, negative ones in [0] and positive ones in [1], so a test
// can tell that its inputs reach the rounding rule on both sides of zero.
type refQPool struct {
	avg                      bool
	size, stride             int
	ch, inH, inW, outH, outW int
	out                      []int8
	halfway                  [2]int
}

func (p *refQPool) forward(in []int8) []int8 {
	idx := 0
	for c := 0; c < p.ch; c++ {
		for oy := 0; oy < p.outH; oy++ {
			for ox := 0; ox < p.outW; ox++ {
				y0, y1, x0, x1 := refPoolWindow(p.size, p.stride, oy, ox)
				best, sum := int8(-128), int32(0)
				for y := y0; y < y1; y++ {
					for x := x0; x < x1; x++ {
						v := in[(c*p.inH+y)*p.inW+x]
						best = max(best, v)
						sum += int32(v)
					}
				}
				if !p.avg {
					p.out[idx] = best
					idx++
					continue
				}
				count := int32((y1 - y0) * (x1 - x0))
				if sum%count != 0 && 2*sum%count == 0 {
					p.halfway[min(max(sum, 0), 1)]++
				}
				num, den := 2*sum+count, 2*count
				q := num / den
				if num < 0 && num%den != 0 {
					q-- // floor, not truncation
				}
				p.out[idx] = int8(q)
				idx++
			}
		}
	}
	return p.out
}
