package cnn

// The layer kernels: im2col/GEMM and direct kernels that process a packed
// block of B samples per layer call. They are the only layer arithmetic in
// the package: training runs blocks of up to blockSize samples (train.go),
// float inference blocks of blockSize or of one (network.go), and int8
// inference blocks of one (quant.go).
//
// # Packed layouts
//
// Spatial activations travel as 4-D (C, B, H, W) tensors — channel-major
// with the batch dimension second, so each (channel, sample) plane is a
// contiguous H×W run and the flattened (C, B·H·W) view is exactly the GEMM
// output layout of the convolution. Flat activations travel as 2-D (B, F)
// tensors, one row per sample. Flatten converts between the two.
//
// # Bit-identity argument
//
// The plain per-sample loops of ref_test.go are the reference. Their result
// is fixed by the per-element elementary accumulation order: every
// output/gradient tensor element is an independent accumulator, float64
// stores are exact (no extended precision), so any reorganization that feeds
// each element the same terms in the same order produces the same bits. The
// kernels preserve that order everywhere, and no sample's terms depend on
// the other samples of its block, so any block size gives the same bits:
//
//   - Conv forward: each output element is seeded with its bias and then
//     receives its im2col column terms in ascending (ic, ky, kx) order via
//     MatMulAddInto — the reference loop's exact order. Padding cells hold 0
//     in the patch matrix, so the GEMM adds w·0 terms the reference skips;
//     adding ±0 never changes a sum that is not -0.0, and the running sums
//     here cannot reach -0.0 (IEEE-754 round-to-nearest only yields -0.0
//     from (-0.0)+(-0.0)).
//   - Locally connected conv (a replica table, MicroDeep's local-update
//     mode): every output position has its own kernel, so the layer is one
//     GEMV per position, batched over the block's samples. forwardLocal
//     walks each output row against a cached position-minor copy of the
//     table (repT, dropped by invalidateBatchWeights like Dense's wT); each
//     element is seeded with its bias and then receives its in-range
//     (ic, ky, kx) terms in ascending order with the padding terms skipped,
//     exactly as the reference loop does.
//   - Conv backward: gradB/gradW/gradIn keep the reference's sparse loops
//     with the block's samples outermost, so each element sees its
//     contributions in (sample, oy, ox, oc) order — the order the reference
//     produces across consecutive samples. Under a replica table the weight
//     gradients of position p go to repG[p] and the input gradients scatter
//     through repK[p], in that same order.
//   - Dense: forward, the weight-gradient GEMM and the input-gradient GEMM
//     all accumulate in ascending feature/sample/output order, matching the
//     reference loops term for term (zero-skip differences are ±0 no-ops as
//     above, on accumulators that start at +0).
//   - Pooling: per-plane window folds. Max-pool's forward records each
//     window's winner, the first cell equal to its max, which is where the
//     reference routes the gradient; every backward scatters from that
//     record in pool-output order, the reference's, so no backward searches
//     a window. Its 2×2/3×3 folds regroup the max only on NaN-free windows,
//     where max is associative. Fused behind a ReLU it gates each gradient on
//     the ReLU output at the winner, exactly the reference's ReLU backward
//     (see MaxPool2D.forwardBatchImpl for the NaN case).
//   - ReLU/flatten: element-wise operations applied in the reference's scan
//     order; only the memory layout changes.
//   - Cross-entropy: crossEntropyRows runs CrossEntropy's arithmetic row by
//     row.

import (
	"fmt"
	"math"
	"slices"

	"zeiot/internal/tensor"
)

// sameBacking reports whether two slices share the same backing array start
// and length — the cheap test that lets a cached view be reused.
func sameBacking(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// ensureView returns a cached tensor of the given shape viewing data,
// rebuilding the wrapper only when the backing array or shape changed (so
// steady-state blocks allocate nothing; shape is cloned on a rebuild so the
// caller's argument list never escapes).
func ensureView(v *tensor.Tensor, data []float64, shape ...int) *tensor.Tensor {
	if v != nil && sameBacking(v.Data(), data) && slices.Equal(v.Shape(), shape) {
		return v
	}
	return tensor.FromSlice(data, slices.Clone(shape)...)
}

// ---------------------------------------------------------------------------
// Conv2D

// im2col packs the batched input (InC, B, H, W) into the patch matrix
// (InC·KH·KW, B·oh·ow): row q = (ic, ky, kx) holds, for every flattened
// output position p = (b, oy, ox), the input value under that kernel offset,
// with zeros where the window reads padding.
func (c *Conv2D) im2col(ind []float64, bsz, h, w, oh, ow int) {
	pd := c.patch.Data()
	bp := bsz * oh * ow
	q := 0
	for ic := 0; ic < c.InC; ic++ {
		for ky := 0; ky < c.KH; ky++ {
			for kx := 0; kx < c.KW; kx++ {
				qrow := pd[q*bp : (q+1)*bp]
				q++
				for b := 0; b < bsz; b++ {
					plane := ind[(ic*bsz+b)*h*w : (ic*bsz+b+1)*h*w]
					for oy := 0; oy < oh; oy++ {
						dst := qrow[(b*oh+oy)*ow : (b*oh+oy)*ow+ow]
						iy := oy*c.Stride - c.Pad + ky
						if iy < 0 || iy >= h {
							clear(dst)
							continue
						}
						row := plane[iy*w : (iy+1)*w]
						if c.Stride == 1 {
							// In-range columns: 0 <= ox-Pad+kx < w.
							lo := c.Pad - kx
							if lo < 0 {
								lo = 0
							}
							hi := w + c.Pad - kx
							if hi > ow {
								hi = ow
							}
							if hi < lo {
								hi = lo
							}
							clear(dst[:lo])
							copy(dst[lo:hi], row[lo-c.Pad+kx:hi-c.Pad+kx])
							clear(dst[hi:])
							continue
						}
						for ox := range dst {
							ix := ox*c.Stride - c.Pad + kx
							if ix < 0 || ix >= w {
								dst[ox] = 0
							} else {
								dst[ox] = row[ix]
							}
						}
					}
				}
			}
		}
	}
}

// forwardBatch implements Layer: one bias-seeded GEMM
// (OutC, CKK) × (CKK, B·oh·ow) per block, or under a replica table the
// locally connected kernel (forwardLocal).
func (c *Conv2D) forwardBatch(in *tensor.Tensor) *tensor.Tensor {
	return c.forwardBatchImpl(in, false)
}

// forwardBatchReLU is forwardBatch with the following ReLU layer fused into
// the GEMM's final store (see forwardBatchAll); the returned block already
// holds the activated values.
func (c *Conv2D) forwardBatchReLU(in *tensor.Tensor) *tensor.Tensor {
	return c.forwardBatchImpl(in, true)
}

func (c *Conv2D) forwardBatchImpl(in *tensor.Tensor, relu bool) *tensor.Tensor {
	if in.Dims() != 4 || in.Dim(0) != c.InC {
		panic(fmt.Sprintf("cnn: batched conv input shape %v, want (%d,B,H,W)", in.Shape(), c.InC))
	}
	bsz, h, w := in.Dim(1), in.Dim(2), in.Dim(3)
	oh := (h+2*c.Pad-c.KH)/c.Stride + 1
	ow := (w+2*c.Pad-c.KW)/c.Stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("cnn: conv output collapses for input %v", in.Shape()))
	}
	c.lastInB = in
	c.outB = tensor.Ensure(c.outB, c.OutC, bsz, oh, ow)
	if c.repK != nil {
		c.forwardLocal(in.Data(), c.outB.Data(), bsz, h, w, oh, ow, relu)
		return c.outB
	}
	if c.InC == 1 && c.KH == 3 && c.KW == 3 && c.Stride == 1 && c.Pad == 1 && h >= 3 && w >= 3 {
		c.forwardDirect3x1(in.Data(), c.outB.Data(), bsz, h, w, relu)
		return c.outB
	}
	bp := bsz * oh * ow
	ckk := c.InC * c.KH * c.KW
	c.patch = tensor.Ensure(c.patch, ckk, bp)
	c.im2col(in.Data(), bsz, h, w, oh, ow)
	c.out2 = ensureView(c.out2, c.outB.Data(), c.OutC, bp)
	c.w2 = ensureView(c.w2, c.weight.Data(), c.OutC, ckk)
	tensor.MatMulBiasInto(c.out2, c.w2, c.patch, c.bias.Data(), relu)
	return c.outB
}

// localTable returns the position-minor copy of the replica table, shaped
// (OutC, InC·KH·KW, oh·ow): element (oc, q, p) is weight q of output channel
// oc in position p's kernel, so the weights one output row needs for a given
// (oc, q) are contiguous. The copy is rebuilt only after
// invalidateBatchWeights has cleared repTok.
func (c *Conv2D) localTable(oh, ow int) []float64 {
	np := oh * ow
	if len(c.repK) != np || c.repW != ow {
		panic(fmt.Sprintf("cnn: replica table of %d kernels, width %d, for a %d×%d output", len(c.repK), c.repW, oh, ow))
	}
	nw := c.OutC * c.InC * c.KH * c.KW
	c.repT = tensor.Ensure(c.repT, nw, np)
	td := c.repT.Data()
	if !c.repTok {
		// Transpose in tiles of 8 positions, so each weight's 8 writes
		// share a cache line while the 8 kernels are read in order.
		var ks [8][]float64
		for p0 := 0; p0 < np; p0 += len(ks) {
			tile := ks[:min(len(ks), np-p0)]
			for i := range tile {
				tile[i] = c.repK[p0+i].Data()[:nw]
			}
			for j := 0; j < nw; j++ {
				dst := td[j*np+p0 : j*np+p0+len(tile)]
				for i, k := range tile {
					dst[i] = k[j]
				}
			}
		}
		c.repTok = true
	}
	return td
}

// localGroup is the number of samples forwardLocal runs through one
// position's kernel at a time, each with its own accumulator.
const localGroup = 8

// forwardLocal is the locally connected forward over a packed block: one
// batched GEMV per output position. It walks the output rows position by
// position, and at each position multiplies the position's kernel (read from
// the position-minor copy, where the weights of consecutive positions are
// adjacent) into the patches of localGroup samples at once, one register
// accumulator per sample, so every weight load serves the whole group. The
// input is first copied sample-minor (xT: (group, InC, H, W, localGroup),
// zero-filled past the block's last sample) so a window cell's values for
// the group are one contiguous run. Each output element receives bias, then
// its in-range terms in ascending (ic, ky, kx) order with the padding terms
// skipped — the reference loop's sequence — and relu applies the
// fused ReLU at the store.
func (c *Conv2D) forwardLocal(ind, outd []float64, bsz, h, w, oh, ow int, relu bool) {
	const g8 = localGroup
	np := oh * ow
	td := c.localTable(oh, ow)
	bd := c.bias.Data()
	hw := h * w
	groups := (bsz + g8 - 1) / g8
	c.xT = tensor.Ensure(c.xT, groups*c.InC*hw*g8)
	xt := c.xT.Data()
	for gi := 0; gi < groups; gi++ {
		for ic := 0; ic < c.InC; ic++ {
			dst := xt[(gi*c.InC+ic)*hw*g8 : (gi*c.InC+ic+1)*hw*g8]
			for j := 0; j < g8; j++ {
				b := gi*g8 + j
				if b >= bsz {
					for i := 0; i < hw; i++ {
						dst[i*g8+j] = 0
					}
					continue
				}
				src := ind[(ic*bsz+b)*hw : (ic*bsz+b+1)*hw]
				for i, v := range src {
					dst[i*g8+j] = v
				}
			}
		}
	}
	khkw := c.KH * c.KW
	st, pad := c.Stride, c.Pad
	is3x3 := c.KH == 3 && c.KW == 3
	for oc := 0; oc < c.OutC; oc++ {
		bias := bd[oc]
		wOC := oc * c.InC * khkw * np
		for oy := 0; oy < oh; oy++ {
			ky0, ky1 := kernelWindow(oy, st, pad, c.KH, h)
			iyBase := oy*st - pad
			for ox := 0; ox < ow; ox++ {
				kx0, kx1 := kernelWindow(ox, st, pad, c.KW, w)
				ixBase := ox*st - pad
				p := oy*ow + ox
				full3 := is3x3 && ky0 == 0 && ky1 == 3 && kx0 == 0 && kx1 == 3
				for gi := 0; gi < groups; gi++ {
					a0, a1, a2, a3 := bias, bias, bias, bias
					a4, a5, a6, a7 := bias, bias, bias, bias
					for ic := 0; ic < c.InC; ic++ {
						// Cell index of the window origin in xT and td index
						// of the channel's first kernel weight at p.
						cell := ((gi*c.InC+ic)*h+iyBase)*w + ixBase
						wi := wOC + ic*khkw*np + p
						if full3 {
							// Whole 3×3 window in range: per window row, the
							// three cells' groups are one contiguous run.
							for ky := 0; ky < 3; ky++ {
								xs := xt[(cell+ky*w)*g8 : (cell+ky*w)*g8+3*g8]
								w0, w1, w2 := td[wi], td[wi+np], td[wi+2*np]
								a0 += w0 * xs[0]
								a1 += w0 * xs[1]
								a2 += w0 * xs[2]
								a3 += w0 * xs[3]
								a4 += w0 * xs[4]
								a5 += w0 * xs[5]
								a6 += w0 * xs[6]
								a7 += w0 * xs[7]
								a0 += w1 * xs[8]
								a1 += w1 * xs[9]
								a2 += w1 * xs[10]
								a3 += w1 * xs[11]
								a4 += w1 * xs[12]
								a5 += w1 * xs[13]
								a6 += w1 * xs[14]
								a7 += w1 * xs[15]
								a0 += w2 * xs[16]
								a1 += w2 * xs[17]
								a2 += w2 * xs[18]
								a3 += w2 * xs[19]
								a4 += w2 * xs[20]
								a5 += w2 * xs[21]
								a6 += w2 * xs[22]
								a7 += w2 * xs[23]
								wi += 3 * np
							}
							continue
						}
						for ky := ky0; ky < ky1; ky++ {
							wk := wi + (ky*c.KW+kx0)*np
							xi := (cell + ky*w + kx0) * g8
							for kx := kx0; kx < kx1; kx++ {
								wv := td[wk]
								xs := xt[xi : xi+g8 : xi+g8]
								a0 += wv * xs[0]
								a1 += wv * xs[1]
								a2 += wv * xs[2]
								a3 += wv * xs[3]
								a4 += wv * xs[4]
								a5 += wv * xs[5]
								a6 += wv * xs[6]
								a7 += wv * xs[7]
								wk += np
								xi += g8
							}
						}
					}
					if relu {
						a0, a1, a2, a3 = reluMask(a0), reluMask(a1), reluMask(a2), reluMask(a3)
						a4, a5, a6, a7 = reluMask(a4), reluMask(a5), reluMask(a6), reluMask(a7)
					}
					o := (oc*bsz+gi*g8)*np + p
					if n := bsz - gi*g8; n < g8 {
						acc := [g8]float64{a0, a1, a2, a3, a4, a5, a6, a7}
						for j := 0; j < n; j++ {
							outd[o+j*np] = acc[j]
						}
						continue
					}
					outd[o] = a0
					outd[o+np] = a1
					outd[o+2*np] = a2
					outd[o+3*np] = a3
					outd[o+4*np] = a4
					outd[o+5*np] = a5
					outd[o+6*np] = a6
					outd[o+7*np] = a7
				}
			}
		}
	}
}

// forwardDirect3x1 is the im2col-free fast path for single-input-channel
// 3×3/stride-1/pad-1 convolutions: the nine weights stay in registers and
// slide over three input row slices per output row, writing each output (and
// its fused ReLU) in one pass with no patch matrix. Every output element
// still accumulates bias first and then its window terms in (ky, kx)
// ascending order with the padding terms skipped — the reference loop's exact
// sequence, so the result is bit-identical to the GEMM path (which adds the
// padding terms as ±0 no-ops instead).
func (c *Conv2D) forwardDirect3x1(ind, outd []float64, bsz, h, w int, relu bool) {
	chw := h * w
	wd := c.weight.Data()
	bd := c.bias.Data()
	for oc := 0; oc < c.OutC; oc++ {
		bias := bd[oc]
		k := wd[oc*9 : oc*9+9]
		k0, k1, k2 := k[0], k[1], k[2]
		k3, k4, k5 := k[3], k[4], k[5]
		k6, k7, k8 := k[6], k[7], k[8]
		for b := 0; b < bsz; b++ {
			plane := ind[b*chw : (b+1)*chw]
			od := outd[(oc*bsz+b)*chw : (oc*bsz+b+1)*chw]
			for y := 0; y < h; y++ {
				orow := od[y*w : y*w+w]
				iy := y - 1
				switch {
				case iy < 0:
					// Top row: window rows 1,2 over input rows 0,1.
					r1 := plane[:w]
					r2 := plane[w : 2*w]
					v := bias
					v += k4 * r1[0]
					v += k5 * r1[1]
					v += k7 * r2[0]
					v += k8 * r2[1]
					if relu {
						v = reluMask(v)
					}
					orow[0] = v
					for x := 1; x < w-1; x++ {
						j := x - 1
						v := bias
						v += k3 * r1[j]
						v += k4 * r1[j+1]
						v += k5 * r1[j+2]
						v += k6 * r2[j]
						v += k7 * r2[j+1]
						v += k8 * r2[j+2]
						if relu {
							v = reluMask(v)
						}
						orow[x] = v
					}
					v = bias
					v += k3 * r1[w-2]
					v += k4 * r1[w-1]
					v += k6 * r2[w-2]
					v += k7 * r2[w-1]
					if relu {
						v = reluMask(v)
					}
					orow[w-1] = v
				case iy+3 > h:
					// Bottom row: window rows 0,1 over input rows h-2,h-1.
					r0 := plane[(h-2)*w : (h-1)*w]
					r1 := plane[(h-1)*w : h*w]
					v := bias
					v += k1 * r0[0]
					v += k2 * r0[1]
					v += k4 * r1[0]
					v += k5 * r1[1]
					if relu {
						v = reluMask(v)
					}
					orow[0] = v
					for x := 1; x < w-1; x++ {
						j := x - 1
						v := bias
						v += k0 * r0[j]
						v += k1 * r0[j+1]
						v += k2 * r0[j+2]
						v += k3 * r1[j]
						v += k4 * r1[j+1]
						v += k5 * r1[j+2]
						if relu {
							v = reluMask(v)
						}
						orow[x] = v
					}
					v = bias
					v += k0 * r0[w-2]
					v += k1 * r0[w-1]
					v += k3 * r1[w-2]
					v += k4 * r1[w-1]
					if relu {
						v = reluMask(v)
					}
					orow[w-1] = v
				default:
					r0 := plane[iy*w : iy*w+w]
					r1 := plane[(iy+1)*w : (iy+2)*w]
					r2 := plane[(iy+2)*w : (iy+3)*w]
					v := bias
					v += k1 * r0[0]
					v += k2 * r0[1]
					v += k4 * r1[0]
					v += k5 * r1[1]
					v += k7 * r2[0]
					v += k8 * r2[1]
					if relu {
						v = reluMask(v)
					}
					orow[0] = v
					// Interior, two outputs per pass: windows at x and x+1
					// share four of their six loads per input row.
					x := 1
					for ; x+1 < w-1; x += 2 {
						j := x - 1
						// Highest index first: one bounds check covers the
						// row's remaining three loads.
						a3 := r0[j+3]
						a0, a1, a2 := r0[j], r0[j+1], r0[j+2]
						b3 := r1[j+3]
						b0, b1, b2 := r1[j], r1[j+1], r1[j+2]
						c3 := r2[j+3]
						c0, c1, c2 := r2[j], r2[j+1], r2[j+2]
						v := bias
						v += k0 * a0
						v += k1 * a1
						v += k2 * a2
						v += k3 * b0
						v += k4 * b1
						v += k5 * b2
						v += k6 * c0
						v += k7 * c1
						v += k8 * c2
						u := bias
						u += k0 * a1
						u += k1 * a2
						u += k2 * a3
						u += k3 * b1
						u += k4 * b2
						u += k5 * b3
						u += k6 * c1
						u += k7 * c2
						u += k8 * c3
						if relu {
							v = reluMask(v)
							u = reluMask(u)
						}
						orow[x] = v
						orow[x+1] = u
					}
					for ; x < w-1; x++ {
						j := x - 1
						v := bias
						v += k0 * r0[j]
						v += k1 * r0[j+1]
						v += k2 * r0[j+2]
						v += k3 * r1[j]
						v += k4 * r1[j+1]
						v += k5 * r1[j+2]
						v += k6 * r2[j]
						v += k7 * r2[j+1]
						v += k8 * r2[j+2]
						if relu {
							v = reluMask(v)
						}
						orow[x] = v
					}
					v = bias
					v += k0 * r0[w-2]
					v += k1 * r0[w-1]
					v += k3 * r1[w-2]
					v += k4 * r1[w-1]
					v += k6 * r2[w-2]
					v += k7 * r2[w-1]
					if relu {
						v = reluMask(v)
					}
					orow[w-1] = v
				}
			}
		}
	}
}

// backwardBatch implements Layer. gradB accumulates per channel over
// the flattened (b, oy, ox) gradient row; gradW and gradIn keep the reference's
// sparse gather/scatter loops with samples outermost (see scatterBatch).
func (c *Conv2D) backwardBatch(gradOut *tensor.Tensor, withInGrad bool) *tensor.Tensor {
	if c.lastInB == nil {
		panic("cnn: Conv2D batched backward before forward")
	}
	in := c.lastInB
	bsz, h, w := in.Dim(1), in.Dim(2), in.Dim(3)
	oh, ow := gradOut.Dim(2), gradOut.Dim(3)
	god := gradOut.Data()
	bp := bsz * oh * ow
	gbd := c.gradB.Data()
	for oc := 0; oc < c.OutC; oc++ {
		s := gbd[oc]
		for _, g := range god[oc*bp : (oc+1)*bp] {
			s += g
		}
		gbd[oc] = s
	}
	var gid []float64
	if withInGrad {
		c.gradInB = tensor.Ensure(c.gradInB, c.InC, bsz, h, w)
		c.gradInB.Zero()
		gid = c.gradInB.Data()
	}
	c.scatterBatch(gid, god, in.Data(), bsz, h, w, oh, ow)
	if withInGrad {
		return c.gradInB
	}
	return nil
}

// scatterBatch accumulates the weight gradients (gathering from the packed
// input) and, when gid is non-nil, the input gradients (scattering through
// the kernel) for a packed block. Under a replica table position (oy, ox)
// reads repK and accumulates into repG at oy*repW+ox instead of the shared
// weight and gradW. Loop order is samples outermost, then (oy, ox, oc)
// exactly as the reference's, so every gradW/gradIn element receives the
// same contributions in the same order as the reference over the block's
// samples in turn.
// Positions whose gradient is zero in every channel are skipped before any
// window work, and full 3×3/stride-1 windows unroll.
func (c *Conv2D) scatterBatch(gid, god, ind []float64, bsz, h, w, oh, ow int) {
	khkw := c.KH * c.KW
	kcs := c.InC * khkw
	kd := c.weight.Data()
	gwd := c.gradW.Data()
	bp := bsz * oh * ow
	fast3 := c.KH == 3 && c.KW == 3 && c.Stride == 1
	chw := h * w
	for b := 0; b < bsz; b++ {
		for oy := 0; oy < oh; oy++ {
			ky0, ky1 := kernelWindow(oy, c.Stride, c.Pad, c.KH, h)
			iyBase := oy*c.Stride - c.Pad
			for ox := 0; ox < ow; ox++ {
				p := (b*oh+oy)*ow + ox
				any := false
				for oc := 0; oc < c.OutC; oc++ {
					if god[oc*bp+p] != 0 {
						any = true
						break
					}
				}
				if !any {
					continue
				}
				if c.repK != nil {
					kd = c.repK[oy*c.repW+ox].Data()
					gwd = c.repG[oy*c.repW+ox].Data()
				}
				kx0, kx1 := kernelWindow(ox, c.Stride, c.Pad, c.KW, w)
				ixBase := ox*c.Stride - c.Pad
				if fast3 && ky0 == 0 && ky1 == 3 && kx0 == 0 && kx1 == 3 {
					for oc := 0; oc < c.OutC; oc++ {
						g := god[oc*bp+p]
						if g == 0 {
							continue
						}
						kocBase := oc * kcs
						for ic := 0; ic < c.InC; ic++ {
							o := (ic*bsz+b)*chw + iyBase*w + ixBase
							kOff := kocBase + ic*9
							i0 := ind[o : o+3]
							i1 := ind[o+w : o+w+3]
							i2 := ind[o+2*w : o+2*w+3]
							gk := gwd[kOff : kOff+9]
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
							k := kd[kOff : kOff+9]
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
				for oc := 0; oc < c.OutC; oc++ {
					g := god[oc*bp+p]
					if g == 0 {
						continue
					}
					kocBase := oc * kcs
					for ic := 0; ic < c.InC; ic++ {
						icBase := (ic*bsz + b) * chw
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
}

// sparseWinner is one routed max-pool gradient in a packed block: the conv
// output position that won its pooling window (channel oc, sample b, spatial
// y/x) and the gradient it carries. The emission order — oc-major, then
// sample, then (y, x) ascending — is exactly the per-element accumulation
// order of the dense scatter, which is what keeps the sparse handoff
// bit-identical.
type sparseWinner struct {
	oc, b, y, x int32
	g           float64
}

// backwardBatchSparse consumes the pooling layer's routed winner list
// directly (see MaxPool2D.backwardBatchSparse): gradB and gradW (repG[p]
// under a replica table) accumulate only the positions that actually carry
// gradient, in the same per-element order as the dense scatter, without ever
// materializing or re-scanning the zero-dominated gradient plane. Only valid
// as the stack's first layer (no input gradient is produced).
func (c *Conv2D) backwardBatchSparse(winners []sparseWinner) {
	if c.lastInB == nil {
		panic("cnn: Conv2D batched backward before forward")
	}
	in := c.lastInB
	bsz, h, w := in.Dim(1), in.Dim(2), in.Dim(3)
	ind := in.Data()
	gbd := c.gradB.Data()
	gwd := c.gradW.Data()
	khkw := c.KH * c.KW
	kcs := c.InC * khkw
	chw := h * w
	fast3 := c.KH == 3 && c.KW == 3 && c.Stride == 1
	for i := range winners {
		s := &winners[i]
		g := s.g
		oc := int(s.oc)
		gbd[oc] += g
		oy, ox := int(s.y), int(s.x)
		if c.repG != nil {
			gwd = c.repG[oy*c.repW+ox].Data()
		}
		iyBase := oy*c.Stride - c.Pad
		ixBase := ox*c.Stride - c.Pad
		kocBase := oc * kcs
		if fast3 && iyBase >= 0 && ixBase >= 0 && iyBase+3 <= h && ixBase+3 <= w {
			for ic := 0; ic < c.InC; ic++ {
				o := (ic*bsz+int(s.b))*chw + iyBase*w + ixBase
				kOff := kocBase + ic*9
				i0 := ind[o : o+3]
				i1 := ind[o+w : o+w+3]
				i2 := ind[o+2*w : o+2*w+3]
				gk := gwd[kOff : kOff+9]
				gk[0] += g * i0[0]
				gk[1] += g * i0[1]
				gk[2] += g * i0[2]
				gk[3] += g * i1[0]
				gk[4] += g * i1[1]
				gk[5] += g * i1[2]
				gk[6] += g * i2[0]
				gk[7] += g * i2[1]
				gk[8] += g * i2[2]
			}
			continue
		}
		ky0, ky1 := kernelWindow(oy, c.Stride, c.Pad, c.KH, h)
		kx0, kx1 := kernelWindow(ox, c.Stride, c.Pad, c.KW, w)
		for ic := 0; ic < c.InC; ic++ {
			icBase := (ic*bsz + int(s.b)) * chw
			kicBase := kocBase + ic*khkw
			for ky := ky0; ky < ky1; ky++ {
				iOff := icBase + (iyBase+ky)*w + ixBase
				kOff := kicBase + ky*c.KW
				for kx := kx0; kx < kx1; kx++ {
					gwd[kOff+kx] += g * ind[iOff+kx]
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Dense

// forwardBatch implements Layer: out = in × Wᵀ + bias as one GEMM. The
// transposed weights let the GEMM stream independent output elements —
// escaping a per-output dot product's add-latency chain — while each element
// still accumulates its terms in ascending feature order, then adds the
// bias last, exactly like the reference loop. The transpose is cached until the
// engine invalidates it after an optimizer step.
func (d *Dense) forwardBatch(in *tensor.Tensor) *tensor.Tensor {
	return d.forwardBatchImpl(in, false)
}

// forwardBatchReLU is forwardBatch with the following ReLU layer fused into
// the bias pass (see forwardBatchAll).
func (d *Dense) forwardBatchReLU(in *tensor.Tensor) *tensor.Tensor {
	return d.forwardBatchImpl(in, true)
}

func (d *Dense) forwardBatchImpl(in *tensor.Tensor, relu bool) *tensor.Tensor {
	if in.Dims() != 2 || in.Dim(1) != d.In {
		panic(fmt.Sprintf("cnn: batched dense input shape %v, want (B,%d)", in.Shape(), d.In))
	}
	bsz := in.Dim(0)
	d.lastInB = in
	d.wT = tensor.Ensure(d.wT, d.In, d.Out)
	if !d.wTok {
		wtd := d.wT.Data()
		wd := d.weight.Data()
		for o := 0; o < d.Out; o++ {
			row := wd[o*d.In : (o+1)*d.In]
			for i, v := range row {
				wtd[i*d.Out+o] = v
			}
		}
		d.wTok = true
	}
	d.outB = tensor.Ensure(d.outB, bsz, d.Out)
	d.outB.Zero()
	tensor.MatMulAddInto(d.outB, in, d.wT)
	od := d.outB.Data()
	bd := d.bias.Data()
	for b := 0; b < bsz; b++ {
		row := od[b*d.Out : (b+1)*d.Out]
		if relu {
			for o, bv := range bd {
				row[o] = reluMask(row[o] + bv)
			}
			continue
		}
		for o, bv := range bd {
			row[o] += bv
		}
	}
	return d.outB
}

// backwardBatch implements Layer. gradB reduces the block's gradient
// rows in sample order; gradW runs as one GEMM over the transposed block
// gradient (terms arrive per element in ascending sample order — the reference
// order — with the reference's zero-skips appearing as exact ±0 no-ops);
// gradIn is gradOut × W via MatMulInto, whose zero-skip and ascending-output
// accumulation match the reference input-gradient loop term for term.
func (d *Dense) backwardBatch(gradOut *tensor.Tensor, withInGrad bool) *tensor.Tensor {
	if d.lastInB == nil {
		panic("cnn: Dense batched backward before forward")
	}
	bsz := gradOut.Dim(0)
	god := gradOut.Data()
	gbd := d.gradB.Data()
	for b := 0; b < bsz; b++ {
		row := god[b*d.Out : (b+1)*d.Out]
		for o, g := range row {
			gbd[o] += g
		}
	}
	d.godT = tensor.Ensure(d.godT, d.Out, bsz)
	gtd := d.godT.Data()
	for b := 0; b < bsz; b++ {
		row := god[b*d.Out : (b+1)*d.Out]
		for o, g := range row {
			gtd[o*bsz+b] = g
		}
	}
	d.gw2 = ensureView(d.gw2, d.gradW.Data(), d.Out, d.In)
	tensor.MatMulAddInto(d.gw2, d.godT, d.lastInB)
	if !withInGrad {
		return nil
	}
	d.gradInB = tensor.MatMulInto(d.gradInB, gradOut, d.weight)
	return d.gradInB
}

// ---------------------------------------------------------------------------
// ReLU

// reluMask is the branchless ReLU select shared by the fused kernels: v for
// v > 0, +0.0 otherwise — bit for bit the reference ReLU.
func reluMask(v float64) float64 {
	t := math.Float64bits(v)
	keep := ((t | -t) >> 63) &^ (t >> 63)
	return math.Float64frombits(t & -keep)
}

// forwardBatch implements Layer: reluMask's branchless select, element-wise
// over the packed block.
func (r *ReLU) forwardBatch(in *tensor.Tensor) *tensor.Tensor {
	r.outB = tensor.Ensure(r.outB, in.Shape()...)
	data := r.outB.Data()
	for i, v := range in.Data() {
		t := math.Float64bits(v)
		keep := ((t | -t) >> 63) &^ (t >> 63)
		data[i] = math.Float64frombits(t & -keep)
	}
	return r.outB
}

// backwardBatch implements Layer.
func (r *ReLU) backwardBatch(gradOut *tensor.Tensor, withInGrad bool) *tensor.Tensor {
	if !withInGrad {
		return nil
	}
	if r.outB == nil || r.outB.Size() != gradOut.Size() {
		panic(fmt.Sprintf("cnn: batched ReLU backward before forward (grad %d)", gradOut.Size()))
	}
	r.gradInB = tensor.Ensure(r.gradInB, gradOut.Shape()...)
	data := r.gradInB.Data()
	outd := r.outB.Data()
	for i, g := range gradOut.Data() {
		t := math.Float64bits(outd[i])
		mask := -((t | -t) >> 63)
		data[i] = math.Float64frombits(math.Float64bits(g) & mask)
	}
	return r.gradInB
}

// ---------------------------------------------------------------------------
// Flatten

// forwardBatch implements Layer: (C,B,H,W) gathers to (B, C·H·W), each
// row the row-major (C,H,W) vector the reference Flatten produces; an already
// flat (B,F) block passes through unchanged.
func (f *Flatten) forwardBatch(in *tensor.Tensor) *tensor.Tensor {
	f.bInShape = append(f.bInShape[:0], in.Shape()...)
	if in.Dims() == 2 {
		return in
	}
	if in.Dims() != 4 {
		panic(fmt.Sprintf("cnn: batched flatten input shape %v, want (C,B,H,W) or (B,F)", in.Shape()))
	}
	ch, bsz, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	hw := h * w
	n := ch * hw
	f.outB = tensor.Ensure(f.outB, bsz, n)
	od := f.outB.Data()
	id := in.Data()
	for b := 0; b < bsz; b++ {
		dst := od[b*n : (b+1)*n]
		for c := 0; c < ch; c++ {
			copy(dst[c*hw:(c+1)*hw], id[(c*bsz+b)*hw:(c*bsz+b+1)*hw])
		}
	}
	return f.outB
}

// backwardBatch implements Layer: the inverse scatter of forwardBatch.
func (f *Flatten) backwardBatch(gradOut *tensor.Tensor, withInGrad bool) *tensor.Tensor {
	if !withInGrad {
		return nil
	}
	if len(f.bInShape) == 2 {
		return gradOut
	}
	if len(f.bInShape) != 4 {
		panic("cnn: batched Flatten backward before forward")
	}
	ch, bsz, h, w := f.bInShape[0], f.bInShape[1], f.bInShape[2], f.bInShape[3]
	hw := h * w
	n := ch * hw
	f.gradInB = tensor.Ensure(f.gradInB, ch, bsz, h, w)
	gd := f.gradInB.Data()
	god := gradOut.Data()
	for b := 0; b < bsz; b++ {
		src := god[b*n : (b+1)*n]
		for c := 0; c < ch; c++ {
			copy(gd[(c*bsz+b)*hw:(c*bsz+b+1)*hw], src[c*hw:(c+1)*hw])
		}
	}
	return f.gradInB
}

// ---------------------------------------------------------------------------
// MaxPool2D

// forwardBatch implements Layer: every (channel, sample) plane of the
// packed block is contiguous, so the reference's per-plane window fold runs
// over C·B planes — identical max folds in identical scan order.
func (p *MaxPool2D) forwardBatch(in *tensor.Tensor) *tensor.Tensor {
	return p.forwardBatchImpl(in, false)
}

// forwardBatchReLU is forwardBatch over a raw (pre-activation) block with the
// preceding ReLU layer fused in (see forwardBatchAll).
func (p *MaxPool2D) forwardBatchReLU(in *tensor.Tensor) *tensor.Tensor {
	return p.forwardBatchImpl(in, true)
}

// forwardBatchImpl pools each window and records in win the flat input index
// of its winner, the first window cell equal to the max: the cell the
// reference routes the window's gradient to, or the window origin when no
// cell is equal, as for a NaN max. Every backward reads win; none searches a
// window.
//
// Every fold merges runs of cells in scan order with pick. On a window
// without NaN the builtin max is associative, so the 2×2 and 3×3 cases fold
// as balanced trees, which shortens the dependency chain, and still give the
// reference's left-fold max and its first equal cell. A NaN max's payload
// depends on the grouping (amd64 ORs the operands' bits into it), so such a
// window is folded again by poolWindow in the reference's order.
//
// With relu the block holds raw conv outputs and the ReLU applies to each
// pooled max. On a window without NaN that matches the reference's ReLU, then
// MaxPool: ReLU is monotone and keeps every positive value, so the ReLU of the
// raw max is the max of the ReLU'd window, and while that max is positive the
// first raw cell equal to it is the reference's winner; when it is +0 the ReLU
// backward drops the window's gradient at whichever cell won. A NaN makes the
// raw max NaN where the ReLU maps a negative NaN to +0, so such a window is
// folded over its ReLU'd cells instead, as the reference folds it.
func (p *MaxPool2D) forwardBatchImpl(in *tensor.Tensor, relu bool) *tensor.Tensor {
	if in.Dims() != 4 {
		panic(fmt.Sprintf("cnn: batched pool input shape %v, want (C,B,H,W)", in.Shape()))
	}
	p.lastInB = in
	ch, bsz, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	oh, ow := poolDims(p.Size, p.Stride, h, w)
	p.outB = tensor.Ensure(p.outB, ch, bsz, oh, ow)
	outd := p.outB.Data()
	p.win = slices.Grow(p.win[:0], len(outd))[:len(outd)]
	ind := in.Data()
	i := 0
	for cb := 0; cb < ch*bsz; cb++ {
		for oy := 0; oy < oh; oy++ {
			row := (cb*h + oy*p.Stride) * w
			for ox := 0; ox < ow; ox++ {
				o := row + ox*p.Stride
				var m float64
				var t int
				switch p.Size {
				case 2:
					r0, r1 := ind[o:o+2], ind[o+w:o+w+2]
					m0, t0 := pick(r0[0], o, r0[1], o+1)
					m1, t1 := pick(r1[0], o+w, r1[1], o+w+1)
					m, t = pick(m0, t0, m1, t1)
				case 3:
					r0, r1, r2 := ind[o:o+3], ind[o+w:o+w+3], ind[o+2*w:o+2*w+3]
					m0, t0 := pick(r0[0], o, r0[1], o+1)
					m0, t0 = pick(m0, t0, r0[2], o+2)
					m1, t1 := pick(r1[0], o+w, r1[1], o+w+1)
					m1, t1 = pick(m1, t1, r1[2], o+w+2)
					m2, t2 := pick(r2[0], o+2*w, r2[1], o+2*w+1)
					m2, t2 = pick(m2, t2, r2[2], o+2*w+2)
					m, t = pick(m0, t0, m1, t1)
					m, t = pick(m, t, m2, t2)
				default:
					m, t = poolWindow(ind, o, p.Size, w, false)
				}
				if m != m {
					m, t = poolWindow(ind, o, p.Size, w, relu)
				}
				if relu {
					m = reluMask(m)
				}
				outd[i], p.win[i] = m, t
				i++
			}
		}
	}
	return p.outB
}

// pick merges the max m and winner t of a run of window cells with the max
// mb and winner tb of the run that follows it. The later winner takes over
// only when strictly greater, so on NaN-free cells t stays the first cell
// equal to the max (−0 and +0 are equal, as in the reference's search). The
// comparison compiles to a conditional move: the winning cell is
// data-dependent, so a branch on it would mispredict.
func pick(m float64, t int, mb float64, tb int) (float64, int) {
	if mb > m {
		t = tb
	}
	return max(m, mb), t
}

// poolWindow is the reference's fold of the size×size window at flat index o
// of a plane w wide: the builtin max in scan order from the origin cell, over
// the cells' reluMask when relu is set. It returns the max and the first cell
// equal to it, or the origin for a NaN max, which no cell equals.
func poolWindow(ind []float64, o, size, w int, relu bool) (m float64, t int) {
	m, t = ind[o], o
	if relu {
		m = reluMask(m)
	}
	for r := o; r < o+size*w; r += w {
		for x := r; x < r+size; x++ {
			v := ind[x]
			if relu {
				v = reluMask(v)
			}
			m, t = pick(m, t, v, x)
		}
	}
	if m != m {
		t = o
	}
	return m, t
}

// backwardBatch implements Layer: each nonzero gradient goes to its window's
// recorded winner.
func (p *MaxPool2D) backwardBatch(gradOut *tensor.Tensor, withInGrad bool) *tensor.Tensor {
	if !withInGrad {
		return nil
	}
	return p.scatter(gradOut, false)
}

// scatter adds each nonzero output gradient into the input gradient at its
// window's recorded winner, in pool-output order: per plane the reference's
// scan order, so a cell that overlapping windows share sums their gradients
// in the reference's order. With gated the preceding ReLU's backward runs
// fused (see backwardBatchAll): a gradient is dropped where the ReLU output
// at the winner is +0, exactly where the ReLU backward would zero it.
func (p *MaxPool2D) scatter(gradOut *tensor.Tensor, gated bool) *tensor.Tensor {
	if p.lastInB == nil || len(p.win) != gradOut.Size() {
		panic("cnn: batched MaxPool2D backward before forward")
	}
	p.gradInB = tensor.Ensure(p.gradInB, p.lastInB.Shape()...)
	p.gradInB.Zero()
	gi, ind := p.gradInB.Data(), p.lastInB.Data()
	for i, g := range gradOut.Data() {
		t := p.win[i]
		if g != 0 && (!gated || reluMask(ind[t]) != 0) {
			gi[t] += g
		}
	}
	return p.gradInB
}

// backwardBatchSparse is the gated scatter emitting a winner list instead of
// a dense gradient plane, for the Conv2D+ReLU+MaxPool2D stack prefix (see
// backwardBatchAll). The list keeps the dense scatter's per-element order:
// channel-major, then sample, then (y, x) ascending within the plane. Windows
// are visited in pool-output order, which interleaves winner rows; with
// non-overlapping windows (Stride >= Size, which the caller checks) each
// window row covers input rows of its own, so bucketing its winners by row
// offset and concatenating the buckets restores (y, x) order. Overlapping
// windows could route two gradients to one cell, which the conv would need
// summed first.
func (p *MaxPool2D) backwardBatchSparse(gradOut *tensor.Tensor) []sparseWinner {
	if p.lastInB == nil || len(p.win) != gradOut.Size() {
		panic("cnn: batched MaxPool2D backward before forward")
	}
	ch, bsz, h, w := p.lastInB.Dim(0), p.lastInB.Dim(1), p.lastInB.Dim(2), p.lastInB.Dim(3)
	oh, ow := gradOut.Dim(2), gradOut.Dim(3)
	ind, god := p.lastInB.Data(), gradOut.Data()
	if len(p.bkts) != p.Size {
		p.bkts = make([][]sparseWinner, p.Size)
	}
	winners := p.spw[:0]
	i := 0
	for cb := 0; cb < ch*bsz; cb++ {
		oc, b := int32(cb/bsz), int32(cb%bsz)
		for oy := 0; oy < oh; oy++ {
			y0 := oy * p.Stride
			row := (cb*h + y0) * w
			for range ow {
				g, t := god[i], p.win[i]
				i++
				if g == 0 || reluMask(ind[t]) == 0 {
					continue
				}
				// A 32-bit divide: t-row < Size·w, and it is several
				// times cheaper than a 64-bit one on amd64.
				dy := int(uint32(t-row) / uint32(w))
				x := t - row - dy*w
				p.bkts[dy] = append(p.bkts[dy], sparseWinner{oc, b, int32(y0 + dy), int32(x), g})
			}
			for dy, bk := range p.bkts {
				winners = append(winners, bk...)
				p.bkts[dy] = bk[:0]
			}
		}
	}
	p.spw = winners
	return winners
}

// ---------------------------------------------------------------------------
// AvgPool2D

// forwardBatch implements Layer: the reference's window mean per contiguous
// (channel, sample) plane.
func (p *AvgPool2D) forwardBatch(in *tensor.Tensor) *tensor.Tensor {
	if in.Dims() != 4 {
		panic(fmt.Sprintf("cnn: batched pool input shape %v, want (C,B,H,W)", in.Shape()))
	}
	p.bInShape = append(p.bInShape[:0], in.Shape()...)
	ch, bsz, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	oh, ow := poolDims(p.Size, p.Stride, h, w)
	p.outB = tensor.Ensure(p.outB, ch, bsz, oh, ow)
	ind := in.Data()
	outd := p.outB.Data()
	count := float64(p.Size * p.Size)
	idx := 0
	for cb := 0; cb < ch*bsz; cb++ {
		for oy := 0; oy < oh; oy++ {
			row := (cb*h + oy*p.Stride) * w
			for ox := 0; ox < ow; ox++ {
				o := row + ox*p.Stride
				sum := 0.0
				for r := o; r < o+p.Size*w; r += w {
					for _, v := range ind[r : r+p.Size] {
						sum += v
					}
				}
				outd[idx] = sum / count
				idx++
			}
		}
	}
	return p.outB
}

// backwardBatch implements Layer.
func (p *AvgPool2D) backwardBatch(gradOut *tensor.Tensor, withInGrad bool) *tensor.Tensor {
	if !withInGrad {
		return nil
	}
	if len(p.bInShape) != 4 {
		panic("cnn: batched AvgPool2D backward before forward")
	}
	ch, bsz, h, w := p.bInShape[0], p.bInShape[1], p.bInShape[2], p.bInShape[3]
	oh, ow := gradOut.Dim(2), gradOut.Dim(3)
	p.gradInB = tensor.Ensure(p.gradInB, ch, bsz, h, w)
	p.gradInB.Zero()
	gid := p.gradInB.Data()
	god := gradOut.Data()
	count := float64(p.Size * p.Size)
	idx := 0
	for cb := 0; cb < ch*bsz; cb++ {
		for oy := 0; oy < oh; oy++ {
			row := (cb*h + oy*p.Stride) * w
			for ox := 0; ox < ow; ox++ {
				o := row + ox*p.Stride
				g := god[idx] / count
				for r := o; r < o+p.Size*w; r += w {
					for x := r; x < r+p.Size; x++ {
						gid[x] += g
					}
				}
				idx++
			}
		}
	}
	return p.gradInB
}

// ---------------------------------------------------------------------------
// Network engine

// forwardBatchAll runs all layers over a packed block. Conv2D+ReLU and
// Dense+ReLU pairs run fused — the ReLU select folds into the producer's
// bias pass, skipping one full read-modify-write sweep of the activation
// block. The skipped ReLU layer's outB is aliased to the fused output so its
// backwardBatch still sees the activation bits it keys on; reluMask
// reproduces the reference ReLU bit for bit, so the fused path stays
// bit-identical.
func (n *Network) forwardBatchAll(in *tensor.Tensor) *tensor.Tensor {
	x := in
	ls := n.layers
	for i := 0; i < len(ls); i++ {
		if i+1 < len(ls) {
			if r, ok := ls[i+1].(*ReLU); ok {
				switch l := ls[i].(type) {
				case *Conv2D:
					// Conv2D+ReLU+MaxPool2D: the pool reads the raw conv
					// block and applies the select once per pooled output
					// instead of once per conv output (see
					// MaxPool2D.forwardBatchImpl). Its backward is always the
					// gated scatter, which reads that raw block, so the ReLU
					// layer keeps no output.
					if i+2 < len(ls) {
						if p, ok2 := ls[i+2].(*MaxPool2D); ok2 {
							x = p.forwardBatchReLU(l.forwardBatch(x))
							i += 2
							continue
						}
					}
					x = l.forwardBatchReLU(x)
					r.outB = x
					i++
					continue
				case *Dense:
					x = l.forwardBatchReLU(x)
					r.outB = x
					i++
					continue
				}
			}
		}
		x = ls[i].forwardBatch(x)
	}
	return x
}

// backwardBatchAll propagates packed dLoss/dLogits rows through all layers,
// skipping the first layer's input gradient, which nothing consumes. A ReLU
// feeding a MaxPool2D runs fused into the pool's scatter: after the pool only
// winner cells hold a gradient, and the ReLU backward passes a cell's
// gradient where the ReLU output is nonzero, so gating each routed gradient on
// the ReLU output at its winner (reluMask of the pool's input there, raw or
// already ReLU'd) gives the unfused bits without a full-plane masking pass.
func (n *Network) backwardBatchAll(grad *tensor.Tensor) {
	g := grad
	ls := n.layers
	i := len(ls) - 1
	for i >= 1 {
		if p, ok := ls[i].(*MaxPool2D); ok && i >= 2 {
			if _, ok2 := ls[i-1].(*ReLU); ok2 {
				if c, ok3 := ls[0].(*Conv2D); ok3 && i == 2 && p.Stride >= p.Size {
					// Conv2D+ReLU+MaxPool2D stack prefix: hand the pool's
					// routed winners straight to the first layer's gradW/gradB
					// accumulation — no dense gradient plane at all.
					c.backwardBatchSparse(p.backwardBatchSparse(g))
					return
				}
				g = p.scatter(g, true)
				i -= 2
				continue
			}
		}
		g = ls[i].backwardBatch(g, true)
		i--
	}
	if i == 0 {
		ls[0].backwardBatch(g, false)
	}
}

// invalidateBatchWeights drops every per-layer derived-weight cache (the
// Dense wT transpose and the Conv2D replica copy repT) on the network's own
// layers and its shadow stacks. Callers edit parameters in place between
// calls (optimizers, gradient checks, checkpoint restore, replica edits), so
// every network-level entry point runs it first, and trainChunk again after
// each optimizer step.
func (n *Network) invalidateBatchWeights() {
	dropWeightCaches(n.layers)
	for _, s := range n.slots {
		dropWeightCaches(s.net.layers)
	}
}

func dropWeightCaches(layers []Layer) {
	for _, l := range layers {
		switch l := l.(type) {
		case *Dense:
			l.wTok = false
		case *Conv2D:
			l.repTok = false
		}
	}
}

// crossEntropyRows computes per-row softmax cross-entropy over packed logits
// (bsz, nclass), writing the dLoss/dLogits rows into grad and the per-sample
// losses into losses. Per row the arithmetic is exactly CrossEntropy's.
func crossEntropyRows(logits *tensor.Tensor, labels []int, grad *tensor.Tensor, losses []float64) {
	bsz, nc := logits.Dim(0), logits.Dim(1)
	ld, gd := logits.Data(), grad.Data()
	for b := 0; b < bsz; b++ {
		row := ld[b*nc : (b+1)*nc]
		grow := gd[b*nc : (b+1)*nc]
		label := labels[b]
		if label < 0 || label >= nc {
			panic(fmt.Sprintf("cnn: label %d for %d classes", label, nc))
		}
		maxV := math.Inf(-1)
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for i, v := range row {
			e := math.Exp(v - maxV)
			grow[i] = e
			sum += e
		}
		for i := range grow {
			grow[i] /= sum
		}
		const eps = 1e-12
		losses[b] = -math.Log(grow[label] + eps)
		grow[label] -= 1
	}
}
