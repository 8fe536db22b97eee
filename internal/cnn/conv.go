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
	lastIn       *tensor.Tensor
	// out and gradIn are reusable scratch buffers (see the package comment
	// on buffer ownership); accBuf holds one running sum per output channel
	// for the input-load-hoisting forward fast path.
	out, gradIn *tensor.Tensor
	accBuf      []float64
	// nzOC/nzG collect the output channels with nonzero gradient at one
	// position so the backward inner loops visit only those (after max-pool
	// routing most channel gradients are zero).
	nzOC []int
	nzG  []float64
	// repK/repG, when set via SetReplicaTable, replace the shared kernel
	// per output position: position (oy, ox) computes with repK[oy*repW+ox]
	// and accumulates its weight gradients into repG[oy*repW+ox]. Package
	// microdeep installs them to emulate per-node weight replicas (a
	// locally connected layer).
	repK, repG []*tensor.Tensor
	repW       int
	// Batched-path scratch (see batch.go): the packed (C,B,H,W) output and
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
	_ Layer        = (*Conv2D)(nil)
	_ ParamLayer   = (*Conv2D)(nil)
	_ SpatialLayer = (*Conv2D)(nil)
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

// shadow implements shadowLayer: the clone shares parameters, gradients and
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

// Receptive implements SpatialLayer.
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

// Forward implements Layer. The returned tensor and the cached input are
// owned by the layer until its next Forward call; the input must stay
// unmodified until Backward runs.
func (c *Conv2D) Forward(in *tensor.Tensor) *tensor.Tensor {
	if in.Dims() != 3 || in.Dim(0) != c.InC {
		panic(fmt.Sprintf("cnn: conv input shape %v, want (%d,H,W)", in.Shape(), c.InC))
	}
	c.lastIn = in
	h, w := in.Dim(1), in.Dim(2)
	// Inline OutShape: building the shape slice would allocate per call.
	oh := (h+2*c.Pad-c.KH)/c.Stride + 1
	ow := (w+2*c.Pad-c.KW)/c.Stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("cnn: conv output collapses for input %v", in.Shape()))
	}
	c.out = tensor.Ensure(c.out, c.OutC, oh, ow)
	if len(c.accBuf) < c.OutC {
		c.accBuf = make([]float64, c.OutC)
	}
	ind := in.Data()
	outd := c.out.Data()
	if c.KH == 3 && c.KW == 3 && c.Stride == 1 {
		c.forward3x3(ind, outd, h, w, oh, ow)
		return c.out
	}
	biasd := c.bias.Data()
	khkw := c.KH * c.KW
	kcs := c.InC * khkw // kernel stride per output channel
	for oy := 0; oy < oh; oy++ {
		ky0, ky1 := kernelWindow(oy, c.Stride, c.Pad, c.KH, h)
		iyBase := oy*c.Stride - c.Pad
		for ox := 0; ox < ow; ox++ {
			kernel := c.weight
			if c.repK != nil {
				kernel = c.repK[oy*c.repW+ox]
			}
			kd := kernel.Data()
			kx0, kx1 := kernelWindow(ox, c.Stride, c.Pad, c.KW, w)
			ixBase := ox*c.Stride - c.Pad
			for oc := 0; oc < c.OutC; oc++ {
				sum := biasd[oc]
				kocBase := oc * kcs
				for ic := 0; ic < c.InC; ic++ {
					icBase := ic * h * w
					kicBase := kocBase + ic*khkw
					for ky := ky0; ky < ky1; ky++ {
						iOff := icBase + (iyBase+ky)*w + ixBase
						irow := ind[iOff+kx0 : iOff+kx1]
						krow := kd[kicBase+ky*c.KW+kx0 : kicBase+ky*c.KW+kx1]
						for i, kv := range krow {
							sum += kv * irow[i]
						}
					}
				}
				outd[(oc*oh+oy)*ow+ox] = sum
			}
		}
	}
	return c.out
}

// backward3x3 is the 3×3/stride-1 backward fast path. The outer
// (oy, ox, oc, ic) loop order of the general path is preserved exactly —
// gradB, gradW, and gradIn are shared accumulators, so the order of
// contributions across output positions is what fixes the float bits.
// Within one (oc, ic) block every touched gradW/gradIn element receives
// exactly one contribution, so the full window unrolls freely. A nil gid
// skips the input-gradient half entirely (first-layer backward); the
// single-input-channel interior additionally hoists the 9 input loads (and,
// with gid, the 9 running input-gradient sums: each element still receives
// the same additions in the same oc order, only the intermediate store
// round-trips disappear — float64 stores are exact, so the bits match).
func (c *Conv2D) backward3x3(ind, gid, god, gbd []float64, h, w, oh, ow int) {
	kcs := c.InC * 9
	chw := h * w
	if len(c.nzOC) < c.OutC {
		c.nzOC = make([]int, c.OutC)
		c.nzG = make([]float64, c.OutC)
	}
	for oy := 0; oy < oh; oy++ {
		ky0, ky1 := kernelWindow(oy, 1, c.Pad, 3, h)
		iyBase := oy - c.Pad
		fullRow := ky0 == 0 && ky1 == 3
		ohow := oh * ow
		oyBase := oy * ow
		for ox := 0; ox < ow; ox++ {
			// Skip positions whose output gradient is zero in every channel
			// (frequent after max-pool routing) before touching the replica
			// tables: zero-gradient channels contribute nothing below.
			goBase := oyBase + ox
			any := false
			for oc := 0; oc < c.OutC; oc++ {
				if god[oc*ohow+goBase] != 0 {
					any = true
					break
				}
			}
			if !any {
				continue
			}
			kernel := c.weight
			gw := c.gradW
			if c.repK != nil {
				kernel = c.repK[oy*c.repW+ox]
				gw = c.repG[oy*c.repW+ox]
			}
			kd := kernel.Data()
			gwd := gw.Data()
			kx0, kx1 := kernelWindow(ox, 1, c.Pad, 3, w)
			ixBase := ox - c.Pad
			if fullRow && kx0 == 0 && kx1 == 3 {
				if c.InC == 1 {
					o := iyBase*w + ixBase
					i0 := ind[o : o+3]
					i1 := ind[o+w : o+w+3]
					i2 := ind[o+2*w : o+2*w+3]
					x0, x1, x2 := i0[0], i0[1], i0[2]
					y0, y1, y2 := i1[0], i1[1], i1[2]
					z0, z1, z2 := i2[0], i2[1], i2[2]
					if gid == nil {
						for oc := 0; oc < c.OutC; oc++ {
							g := god[(oc*oh+oy)*ow+ox]
							if g == 0 {
								continue
							}
							gbd[oc] += g
							gk := gwd[oc*9 : oc*9+9]
							gk[0] += g * x0
							gk[1] += g * x1
							gk[2] += g * x2
							gk[3] += g * y0
							gk[4] += g * y1
							gk[5] += g * y2
							gk[6] += g * z0
							gk[7] += g * z1
							gk[8] += g * z2
						}
						continue
					}
					g0 := gid[o : o+3]
					g1 := gid[o+w : o+w+3]
					g2 := gid[o+2*w : o+2*w+3]
					d0, d1, d2 := g0[0], g0[1], g0[2]
					e0, e1, e2 := g1[0], g1[1], g1[2]
					f0, f1, f2 := g2[0], g2[1], g2[2]
					for oc := 0; oc < c.OutC; oc++ {
						g := god[(oc*oh+oy)*ow+ox]
						if g == 0 {
							continue
						}
						gbd[oc] += g
						k := kd[oc*9 : oc*9+9]
						gk := gwd[oc*9 : oc*9+9]
						gk[0] += g * x0
						gk[1] += g * x1
						gk[2] += g * x2
						gk[3] += g * y0
						gk[4] += g * y1
						gk[5] += g * y2
						gk[6] += g * z0
						gk[7] += g * z1
						gk[8] += g * z2
						d0 += g * k[0]
						d1 += g * k[1]
						d2 += g * k[2]
						e0 += g * k[3]
						e1 += g * k[4]
						e2 += g * k[5]
						f0 += g * k[6]
						f1 += g * k[7]
						f2 += g * k[8]
					}
					g0[0], g0[1], g0[2] = d0, d1, d2
					g1[0], g1[1], g1[2] = e0, e1, e2
					g2[0], g2[1], g2[2] = f0, f1, f2
					continue
				}
				if gid == nil {
					// First-layer multi-channel interior: no input gradient,
					// and every gradW element receives exactly one
					// contribution per position, so input channels iterate
					// outermost and the 9 input loads are shared across all
					// output channels. gradB accumulates first, in oc order,
					// while collecting the nonzero channels so the inner loop
					// visits only those (in the same ascending-oc order the
					// skip-on-zero loop would).
					nz := 0
					for oc := 0; oc < c.OutC; oc++ {
						g := god[oc*ohow+goBase]
						if g != 0 {
							gbd[oc] += g
							c.nzOC[nz] = oc
							c.nzG[nz] = g
							nz++
						}
					}
					nzOC, nzG := c.nzOC[:nz], c.nzG[:nz]
					for ic := 0; ic < c.InC; ic++ {
						o := ic*chw + iyBase*w + ixBase
						x0, x1, x2 := ind[o], ind[o+1], ind[o+2]
						y0, y1, y2 := ind[o+w], ind[o+w+1], ind[o+w+2]
						z0, z1, z2 := ind[o+2*w], ind[o+2*w+1], ind[o+2*w+2]
						ko := ic * 9
						for j, oc := range nzOC {
							g := nzG[j]
							gk := gwd[oc*kcs+ko : oc*kcs+ko+9]
							gk[0] += g * x0
							gk[1] += g * x1
							gk[2] += g * x2
							gk[3] += g * y0
							gk[4] += g * y1
							gk[5] += g * y2
							gk[6] += g * z0
							gk[7] += g * z1
							gk[8] += g * z2
						}
					}
					continue
				}
				for oc := 0; oc < c.OutC; oc++ {
					g := god[(oc*oh+oy)*ow+ox]
					if g == 0 {
						continue
					}
					gbd[oc] += g
					kocBase := oc * kcs
					for ic := 0; ic < c.InC; ic++ {
						o := ic*chw + iyBase*w + ixBase
						kOff := kocBase + ic*9
						k := kd[kOff : kOff+9]
						gk := gwd[kOff : kOff+9]
						i0 := ind[o : o+3]
						i1 := ind[o+w : o+w+3]
						i2 := ind[o+2*w : o+2*w+3]
						gk[0] += g * i0[0]
						gk[1] += g * i0[1]
						gk[2] += g * i0[2]
						gk[3] += g * i1[0]
						gk[4] += g * i1[1]
						gk[5] += g * i1[2]
						gk[6] += g * i2[0]
						gk[7] += g * i2[1]
						gk[8] += g * i2[2]
						if gid == nil {
							continue
						}
						g0 := gid[o : o+3]
						g1 := gid[o+w : o+w+3]
						g2 := gid[o+2*w : o+2*w+3]
						g0[0] += g * k[0]
						g0[1] += g * k[1]
						g0[2] += g * k[2]
						g1[0] += g * k[3]
						g1[1] += g * k[4]
						g1[2] += g * k[5]
						g2[0] += g * k[6]
						g2[1] += g * k[7]
						g2[2] += g * k[8]
					}
				}
				continue
			}
			// Clipped window: unroll on the in-range kx count; the
			// gradW/gradIn update interleaving per kx matches the general
			// loop exactly.
			kxn := kx1 - kx0
			for oc := 0; oc < c.OutC; oc++ {
				g := god[(oc*oh+oy)*ow+ox]
				if g == 0 {
					continue
				}
				gbd[oc] += g
				kocBase := oc * kcs
				for ic := 0; ic < c.InC; ic++ {
					icBase := ic * chw
					kicBase := kocBase + ic*9
					for ky := ky0; ky < ky1; ky++ {
						iOff := icBase + (iyBase+ky)*w + ixBase + kx0
						kOff := kicBase + ky*3 + kx0
						if gid == nil {
							switch kxn {
							case 3:
								gwd[kOff] += g * ind[iOff]
								gwd[kOff+1] += g * ind[iOff+1]
								gwd[kOff+2] += g * ind[iOff+2]
							case 2:
								gwd[kOff] += g * ind[iOff]
								gwd[kOff+1] += g * ind[iOff+1]
							default:
								gwd[kOff] += g * ind[iOff]
							}
							continue
						}
						switch kxn {
						case 3:
							gwd[kOff] += g * ind[iOff]
							gid[iOff] += g * kd[kOff]
							gwd[kOff+1] += g * ind[iOff+1]
							gid[iOff+1] += g * kd[kOff+1]
							gwd[kOff+2] += g * ind[iOff+2]
							gid[iOff+2] += g * kd[kOff+2]
						case 2:
							gwd[kOff] += g * ind[iOff]
							gid[iOff] += g * kd[kOff]
							gwd[kOff+1] += g * ind[iOff+1]
							gid[iOff+1] += g * kd[kOff+1]
						default:
							gwd[kOff] += g * ind[iOff]
							gid[iOff] += g * kd[kOff]
						}
					}
				}
			}
		}
	}
}

// forward3x3 is the 3×3/stride-1 fast path. Per output value it performs
// the accumulation in exactly the general loop's order — bias first, then
// input channels in order, each contributing its kernel window row by row —
// so the result is bit-identical; only the loop structure changes. With
// shared weights the kernel row is hoisted into registers and streamed along
// the full-window output columns; replica mode and the padded borders use
// the unrolled per-position helper.
func (c *Conv2D) forward3x3(ind, outd []float64, h, w, oh, ow int) {
	biasd := c.bias.Data()
	kcs := c.InC * 9
	// Full 3×3 kx-window columns: ox-Pad in [0, w-3].
	xlo, xhi := c.Pad, ow-c.Pad
	if xhi > xlo+w-2 {
		xhi = xlo + w - 2
	}
	if xhi < xlo {
		xhi = xlo
	}
	chw := h * w
	var kd []float64
	if c.repK == nil {
		kd = c.weight.Data()
	}
	for oy := 0; oy < oh; oy++ {
		ky0, ky1 := kernelWindow(oy, 1, c.Pad, 3, h)
		iyBase := oy - c.Pad
		fullRow := ky0 == 0 && ky1 == 3
		if fullRow && c.repK == nil {
			// Shared weights: hoist each (oc, ic) kernel row and stream it
			// along the interior columns.
			for oc := 0; oc < c.OutC; oc++ {
				outRow := outd[(oc*oh+oy)*ow : (oc*oh+oy)*ow+ow]
				b := biasd[oc]
				for ox := xlo; ox < xhi; ox++ {
					outRow[ox] = b
				}
				kocBase := oc * kcs
				for ic := 0; ic < c.InC; ic++ {
					k := kd[kocBase+ic*9 : kocBase+ic*9+9]
					k0, k1, k2 := k[0], k[1], k[2]
					k3, k4, k5 := k[3], k[4], k[5]
					k6, k7, k8 := k[6], k[7], k[8]
					base := ic*chw + iyBase*w
					r0 := ind[base : base+w]
					r1 := ind[base+w : base+2*w]
					r2 := ind[base+2*w : base+3*w]
					for ox := xlo; ox < xhi; ox++ {
						ix := ox - c.Pad
						acc := outRow[ox]
						acc += k0 * r0[ix]
						acc += k1 * r0[ix+1]
						acc += k2 * r0[ix+2]
						acc += k3 * r1[ix]
						acc += k4 * r1[ix+1]
						acc += k5 * r1[ix+2]
						acc += k6 * r2[ix]
						acc += k7 * r2[ix+1]
						acc += k8 * r2[ix+2]
						outRow[ox] = acc
					}
				}
			}
			for ox := 0; ox < xlo; ox++ {
				c.forwardPoint3x3(ind, outd, h, w, oh, ow, oy, ox)
			}
			for ox := xhi; ox < ow; ox++ {
				c.forwardPoint3x3(ind, outd, h, w, oh, ow, oy, ox)
			}
			continue
		}
		if fullRow && c.repK != nil && c.InC == 1 {
			// Replica mode, single input channel (the locally connected
			// layers MicroDeep trains): resolve the per-position kernel once
			// and hoist the 9 input loads across output channels. The
			// per-element accumulation order (bias, then the unrolled window)
			// matches forwardPoint3x3 exactly.
			base := iyBase * w
			r0 := ind[base : base+w]
			r1 := ind[base+w : base+2*w]
			r2 := ind[base+2*w : base+3*w]
			for ox := 0; ox < xlo; ox++ {
				c.forwardPoint3x3(ind, outd, h, w, oh, ow, oy, ox)
			}
			krow := c.repK[oy*c.repW : oy*c.repW+c.repW]
			for ox := xlo; ox < xhi; ox++ {
				kd := krow[ox].Data()
				ix := ox - c.Pad
				x0, x1, x2 := r0[ix], r0[ix+1], r0[ix+2]
				y0, y1, y2 := r1[ix], r1[ix+1], r1[ix+2]
				z0, z1, z2 := r2[ix], r2[ix+1], r2[ix+2]
				for oc := 0; oc < c.OutC; oc++ {
					k := kd[oc*9 : oc*9+9]
					sum := biasd[oc]
					sum += k[0] * x0
					sum += k[1] * x1
					sum += k[2] * x2
					sum += k[3] * y0
					sum += k[4] * y1
					sum += k[5] * y2
					sum += k[6] * z0
					sum += k[7] * z1
					sum += k[8] * z2
					outd[(oc*oh+oy)*ow+ox] = sum
				}
			}
			for ox := xhi; ox < ow; ox++ {
				c.forwardPoint3x3(ind, outd, h, w, oh, ow, oy, ox)
			}
			continue
		}
		if fullRow && c.repK != nil {
			// Replica mode, multi-channel interior: iterate input channels
			// outermost so the 9 input loads are shared across all output
			// channels, with one running sum per output channel in accBuf.
			// Each output element still accumulates bias first, then its
			// window terms in (ic, ky, kx) ascending order — the exact
			// sequence of forwardPoint3x3 — so the bits are identical.
			acc := c.accBuf[:c.OutC]
			for ox := 0; ox < xlo; ox++ {
				c.forwardPoint3x3(ind, outd, h, w, oh, ow, oy, ox)
			}
			oyBase := oy * ow
			krow := c.repK[oy*c.repW : oy*c.repW+c.repW]
			for ox := xlo; ox < xhi; ox++ {
				kd := krow[ox].Data()
				ix := ox - c.Pad
				copy(acc, biasd[:c.OutC])
				for ic := 0; ic < c.InC; ic++ {
					o := ic*chw + iyBase*w + ix
					x0, x1, x2 := ind[o], ind[o+1], ind[o+2]
					y0, y1, y2 := ind[o+w], ind[o+w+1], ind[o+w+2]
					z0, z1, z2 := ind[o+2*w], ind[o+2*w+1], ind[o+2*w+2]
					ko := ic * 9
					for oc := range acc {
						k := kd[oc*kcs+ko : oc*kcs+ko+9]
						a := acc[oc]
						a += k[0] * x0
						a += k[1] * x1
						a += k[2] * x2
						a += k[3] * y0
						a += k[4] * y1
						a += k[5] * y2
						a += k[6] * z0
						a += k[7] * z1
						a += k[8] * z2
						acc[oc] = a
					}
				}
				for oc, a := range acc {
					outd[oc*oh*ow+oyBase+ox] = a
				}
			}
			for ox := xhi; ox < ow; ox++ {
				c.forwardPoint3x3(ind, outd, h, w, oh, ow, oy, ox)
			}
			continue
		}
		// Clipped ky rows (top/bottom padding): the interior columns still
		// have a full kx window, so stream (shared weights) or hoist input
		// loads (replica mode) over the in-range kernel rows; only the
		// corner/edge columns fall back to the per-position helper. Per
		// element the terms still accumulate in (ic, ky, kx) ascending
		// order.
		if c.repK == nil {
			for oc := 0; oc < c.OutC; oc++ {
				outRow := outd[(oc*oh+oy)*ow : (oc*oh+oy)*ow+ow]
				b := biasd[oc]
				for ox := xlo; ox < xhi; ox++ {
					outRow[ox] = b
				}
				kocBase := oc * kcs
				for ic := 0; ic < c.InC; ic++ {
					for ky := ky0; ky < ky1; ky++ {
						kOff := kocBase + ic*9 + ky*3
						k0, k1, k2 := kd[kOff], kd[kOff+1], kd[kOff+2]
						rBase := ic*chw + (iyBase+ky)*w
						r := ind[rBase : rBase+w]
						for ox := xlo; ox < xhi; ox++ {
							ix := ox - c.Pad
							a := outRow[ox]
							a += k0 * r[ix]
							a += k1 * r[ix+1]
							a += k2 * r[ix+2]
							outRow[ox] = a
						}
					}
				}
			}
			for ox := 0; ox < xlo; ox++ {
				c.forwardPoint3x3(ind, outd, h, w, oh, ow, oy, ox)
			}
			for ox := xhi; ox < ow; ox++ {
				c.forwardPoint3x3(ind, outd, h, w, oh, ow, oy, ox)
			}
			continue
		}
		acc := c.accBuf[:c.OutC]
		for ox := 0; ox < xlo; ox++ {
			c.forwardPoint3x3(ind, outd, h, w, oh, ow, oy, ox)
		}
		oyBase := oy * ow
		krow := c.repK[oy*c.repW : oy*c.repW+c.repW]
		for ox := xlo; ox < xhi; ox++ {
			kdr := krow[ox].Data()
			ix := ox - c.Pad
			copy(acc, biasd[:c.OutC])
			for ic := 0; ic < c.InC; ic++ {
				for ky := ky0; ky < ky1; ky++ {
					o := ic*chw + (iyBase+ky)*w + ix
					v0, v1, v2 := ind[o], ind[o+1], ind[o+2]
					kk := ic*9 + ky*3
					for oc := range acc {
						kb := oc*kcs + kk
						a := acc[oc]
						a += kdr[kb] * v0
						a += kdr[kb+1] * v1
						a += kdr[kb+2] * v2
						acc[oc] = a
					}
				}
			}
			for oc, a := range acc {
				outd[oc*oh*ow+oyBase+ox] = a
			}
		}
		for ox := xhi; ox < ow; ox++ {
			c.forwardPoint3x3(ind, outd, h, w, oh, ow, oy, ox)
		}
	}
}

// forwardPoint3x3 computes all output channels of one 3×3/stride-1 output
// position, clipping the kernel window against the padding and resolving the
// per-position replica kernel when installed. The window is unrolled when
// fully in range.
func (c *Conv2D) forwardPoint3x3(ind, outd []float64, h, w, oh, ow, oy, ox int) {
	kernel := c.weight
	if c.repK != nil {
		kernel = c.repK[oy*c.repW+ox]
	}
	kd := kernel.Data()
	biasd := c.bias.Data()
	kcs := c.InC * 9
	ky0, ky1 := kernelWindow(oy, 1, c.Pad, 3, h)
	kx0, kx1 := kernelWindow(ox, 1, c.Pad, 3, w)
	iyBase := oy - c.Pad
	ixBase := ox - c.Pad
	chw := h * w
	if ky0 == 0 && ky1 == 3 && kx0 == 0 && kx1 == 3 {
		for oc := 0; oc < c.OutC; oc++ {
			sum := biasd[oc]
			kocBase := oc * kcs
			for ic := 0; ic < c.InC; ic++ {
				k := kd[kocBase+ic*9 : kocBase+ic*9+9]
				o := ic*chw + iyBase*w + ixBase
				r0 := ind[o : o+3]
				r1 := ind[o+w : o+w+3]
				r2 := ind[o+2*w : o+2*w+3]
				sum += k[0] * r0[0]
				sum += k[1] * r0[1]
				sum += k[2] * r0[2]
				sum += k[3] * r1[0]
				sum += k[4] * r1[1]
				sum += k[5] * r1[2]
				sum += k[6] * r2[0]
				sum += k[7] * r2[1]
				sum += k[8] * r2[2]
			}
			outd[(oc*oh+oy)*ow+ox] = sum
		}
		return
	}
	// Clipped window: unroll on the in-range kx count instead of building a
	// subslice pair per kernel row. Terms still accumulate in ascending kx
	// order.
	kxn := kx1 - kx0
	for oc := 0; oc < c.OutC; oc++ {
		sum := biasd[oc]
		kocBase := oc * kcs
		for ic := 0; ic < c.InC; ic++ {
			icBase := ic * chw
			kicBase := kocBase + ic*9
			for ky := ky0; ky < ky1; ky++ {
				iOff := icBase + (iyBase+ky)*w + ixBase + kx0
				kOff := kicBase + ky*3 + kx0
				switch kxn {
				case 3:
					sum += kd[kOff] * ind[iOff]
					sum += kd[kOff+1] * ind[iOff+1]
					sum += kd[kOff+2] * ind[iOff+2]
				case 2:
					sum += kd[kOff] * ind[iOff]
					sum += kd[kOff+1] * ind[iOff+1]
				default:
					sum += kd[kOff] * ind[iOff]
				}
			}
		}
		outd[(oc*oh+oy)*ow+ox] = sum
	}
}

// Backward implements Layer. The returned gradient tensor is owned by the
// layer until its next Backward call.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if c.lastIn == nil {
		panic("cnn: Conv2D backward before forward")
	}
	h, w := c.lastIn.Dim(1), c.lastIn.Dim(2)
	c.gradIn = tensor.Ensure(c.gradIn, c.InC, h, w)
	c.gradIn.Zero()
	c.backwardInto(c.gradIn.Data(), gradOut)
	return c.gradIn
}

// BackwardNoInputGrad implements inputGradSkipper: it accumulates the
// parameter gradients of Backward while skipping the input-gradient half,
// which the stack's first layer never needs.
func (c *Conv2D) BackwardNoInputGrad(gradOut *tensor.Tensor) {
	if c.lastIn == nil {
		panic("cnn: Conv2D backward before forward")
	}
	c.backwardInto(nil, gradOut)
}

// backwardInto accumulates parameter gradients for gradOut and, when gid is
// non-nil, the input gradient into gid (which must be zeroed by the caller).
func (c *Conv2D) backwardInto(gid []float64, gradOut *tensor.Tensor) {
	in := c.lastIn
	h, w := in.Dim(1), in.Dim(2)
	oh, ow := gradOut.Dim(1), gradOut.Dim(2)
	ind := in.Data()
	god := gradOut.Data()
	gbd := c.gradB.Data()
	if c.KH == 3 && c.KW == 3 && c.Stride == 1 {
		c.backward3x3(ind, gid, god, gbd, h, w, oh, ow)
		return
	}
	khkw := c.KH * c.KW
	kcs := c.InC * khkw
	for oy := 0; oy < oh; oy++ {
		ky0, ky1 := kernelWindow(oy, c.Stride, c.Pad, c.KH, h)
		iyBase := oy*c.Stride - c.Pad
		for ox := 0; ox < ow; ox++ {
			kernel := c.weight
			gw := c.gradW
			if c.repK != nil {
				kernel = c.repK[oy*c.repW+ox]
				gw = c.repG[oy*c.repW+ox]
			}
			kd := kernel.Data()
			gwd := gw.Data()
			kx0, kx1 := kernelWindow(ox, c.Stride, c.Pad, c.KW, w)
			ixBase := ox*c.Stride - c.Pad
			for oc := 0; oc < c.OutC; oc++ {
				g := god[(oc*oh+oy)*ow+ox]
				if g == 0 {
					continue
				}
				gbd[oc] += g
				kocBase := oc * kcs
				for ic := 0; ic < c.InC; ic++ {
					icBase := ic * h * w
					kicBase := kocBase + ic*khkw
					for ky := ky0; ky < ky1; ky++ {
						iOff := icBase + (iyBase+ky)*w + ixBase
						kOff := kicBase + ky*c.KW
						if gid == nil {
							for kx := kx0; kx < kx1; kx++ {
								gwd[kOff+kx] += g * ind[iOff+kx]
							}
							continue
						}
						for kx := kx0; kx < kx1; kx++ {
							gwd[kOff+kx] += g * ind[iOff+kx]
							gid[iOff+kx] += g * kd[kOff+kx]
						}
					}
				}
			}
		}
	}
}
