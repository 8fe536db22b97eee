package cnn

// Int8 fixed-point inference (Neuro.ZERO-style). A trained float network is
// lowered once into a QuantizedNetwork whose forward pass runs entirely on
// int8 activations and weights with int32 accumulators — the arithmetic a
// zero-energy harvester-class MCU can afford — and whose per-layer
// activation scales are calibrated adaptively from float forward passes over
// a calibration set.
//
// Quantization is per-tensor symmetric: value ≈ q·scale with q ∈ [-127,127]
// and zero-point 0, so the inner loops are plain multiply-accumulates with
// no zero-point cross terms. Weights use their own maxabs/127 scale per
// layer; activations use the maxabs/127 of the layer's float outputs over
// the calibration set; biases are pre-scaled to the accumulator's scale
// (inScale·wScale) as int32. Between layers the int32 accumulator is
// rescaled to the next activation scale with a fixed-point multiplier
// (round(m·2^24), round-half-up, saturating to ±127) — no floating point
// anywhere on the inference path. ReLU, max pooling and flatten operate
// directly on int8 (scale passes through unchanged); average pooling uses a
// rounded integer mean. The final Dense layer skips requantization and
// keeps its int32 accumulators: Classify is an integer argmax, and Forward
// dequantizes the logits into a reused float tensor.
//
// Accumulators hold sums of at most ±16129 (127·127) per term, so layers up
// to ~130k inputs per output are overflow-safe in int32 — far beyond the
// layer sizes the experiments use.
//
// Once constructed, Forward/Classify allocate nothing: all buffers are
// sized at build time.

import (
	"errors"
	"fmt"
	"math"

	"zeiot/internal/tensor"
)

// qShift is the fixed-point fraction width of requantization multipliers.
const qShift = 24

// qlayer is one stage of the quantized inference stack.
type qlayer interface {
	qforward(in []int8) []int8
}

// quantDisableFusion turns off the fused conv block and the SWAR dense path
// so tests can compare the optimized integer pipeline against the plain
// reference layers bit for bit. Both paths compute the same integers; only
// the instruction schedule differs.
var quantDisableFusion bool

// requantize rescales an int32 accumulator to the next activation scale:
// round-half-up fixed-point multiply, saturating to the symmetric int8
// range.
func requantize(acc int32, mult int64) int8 {
	v := (int64(acc)*mult + 1<<(qShift-1)) >> qShift
	return int8(min(max(v, -127), 127))
}

// qscale returns the symmetric per-tensor scale for a maximum magnitude.
func qscale(maxabs float64) float64 {
	if maxabs <= 0 {
		return 1
	}
	return maxabs / 127
}

func clampRound8(v float64) int8 {
	r := math.Round(v)
	if r > 127 {
		return 127
	}
	if r < -127 {
		return -127
	}
	return int8(r)
}

// quantizeInput is clampRound8(v*inv) over a slice, restructured for the hot
// path: clamping in the float domain first keeps the float→int conversion in
// range, and for |t| ≤ 127 the sum t+copysign(0.5, t) is exact, so truncation
// equals math.Round's round-half-away-from-zero — identical int8 results for
// every finite input.
func quantizeInput(dst []int8, src []float64, inv float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		t := v * inv
		if t > 127 {
			t = 127
		}
		if t < -127 {
			t = -127
		}
		dst[i] = int8(int32(t + math.Copysign(0.5, t)))
	}
}

func maxAbs(data []float64) float64 {
	m := 0.0
	for _, v := range data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// qConv is an int8 convolution with int32 accumulation.
type qConv struct {
	inC, inH, inW    int
	outC, outH, outW int
	kh, kw           int
	stride, pad      int
	w                []int8  // (outC, inC, kh, kw), at wScale
	b                []int32 // at inScale·wScale
	mult             int64
	out              []int8
}

func (c *qConv) qforward(in []int8) []int8 {
	khkw := c.kh * c.kw
	kcs := c.inC * khkw
	idx := 0
	for oc := 0; oc < c.outC; oc++ {
		kocBase := oc * kcs
		for oy := 0; oy < c.outH; oy++ {
			ky0, ky1 := kernelWindow(oy, c.stride, c.pad, c.kh, c.inH)
			iyBase := oy*c.stride - c.pad
			for ox := 0; ox < c.outW; ox++ {
				kx0, kx1 := kernelWindow(ox, c.stride, c.pad, c.kw, c.inW)
				ixBase := ox*c.stride - c.pad
				acc := c.b[oc]
				for ic := 0; ic < c.inC; ic++ {
					icBase := ic * c.inH * c.inW
					kicBase := kocBase + ic*khkw
					for ky := ky0; ky < ky1; ky++ {
						iOff := icBase + (iyBase+ky)*c.inW + ixBase
						kOff := kicBase + ky*c.kw
						for kx := kx0; kx < kx1; kx++ {
							acc += int32(c.w[kOff+kx]) * int32(in[iOff+kx])
						}
					}
				}
				c.out[idx] = requantize(acc, c.mult)
				idx++
			}
		}
	}
	return c.out
}

// ---------------------------------------------------------------------------
// Fused Conv2D+ReLU+MaxPool2D block
//
// The hot experiment topology starts with a single-channel 3×3/stride-1/pad-1
// convolution feeding ReLU and a max pool. The fused block computes the same
// integers as qConv→qReLU→qMaxPool but restructured for the scalar core:
//
//   - Offset domain: with u = x+128 ∈ [0,255] and w' = w+128 ∈ [1,255], every
//     product u·w' is non-negative and fits 17 bits, so one 64-bit multiply
//     accumulates two output channels at once (w'_a in the low lane, w'_b in
//     the high lane: Σu·w' ≤ 9·255·255 never carries across bit 32). The true
//     accumulator is recovered per lane from
//     Σw·x = Σw'u − 128·Σu − 128·Σw' + 9·16384,
//     where Σu is a 3×3 box sum shared by every output channel and
//     −128·Σw' + 9·16384 folds into a per-channel constant with the bias.
//   - Halo: pad-1 zeros quantize to u = 128, so a one-cell halo of 128s makes
//     every window a full nine-term window — no edge variants, and the Σu
//     plane is a plain separable box filter over the haloed input.
//   - Int32-domain pooling: requantization is monotone (the multiplier is
//     non-negative), so max-pooling the int32 accumulators and requantizing
//     only each window's winner equals requantizing everything first; ReLU
//     commutes with max the same way and becomes a clamp-low-at-zero on the
//     requantized winner. Only pooled survivors pay the fixed-point rescale,
//     and conv rows the pool never reads are not computed at all.
type qConvReLUPool struct {
	inH, inW       int // single-channel input plane
	outC           int
	hEff, wEff     int // conv output rows/cols the pool actually reads
	pSize, pStride int
	poolH, poolW   int
	mult           int64
	w2             []uint64 // per oc pair: 9 packed offset weights w'a | w'b<<32
	c              []int64  // per oc: bias − 128·Σw' + 9·16384
	u              []int64  // haloed offset input (inH+2)×(inW+2), border fixed at 128
	rs             []int64  // horizontal 3-sums over haloed rows, (hEff+2)×wEff
	s              []int64  // 3×3 box sums Σu, hEff×wEff
	accA, accB     []int32  // conv accumulator planes for the current oc pair
	out            []int8
}

// newQConvReLUPool lowers the three-layer stack; the activation scale is the
// conv's calibrated output scale (ReLU and max pool pass scale through).
func newQConvReLUPool(t *Conv2D, p *MaxPool2D, inShape []int, inScale, convActMax float64) (*qConvReLUPool, []int, float64) {
	convOut := t.OutShape(inShape)
	poolOut := p.OutShape(convOut)
	h, w := inShape[1], inShape[2]
	outC := convOut[0]
	hEff := (poolOut[1]-1)*p.Stride + p.Size
	if hEff > convOut[1] {
		hEff = convOut[1]
	}
	wEff := (poolOut[2]-1)*p.Stride + p.Size
	if wEff > convOut[2] {
		wEff = convOut[2]
	}
	wd := t.weight.Data()
	ws := qscale(maxAbs(wd))
	outScale := qscale(convActMax)
	bd := t.bias.Data()
	np := (outC + 1) / 2
	q := &qConvReLUPool{
		inH: h, inW: w, outC: outC,
		hEff: hEff, wEff: wEff,
		pSize: p.Size, pStride: p.Stride,
		poolH: poolOut[1], poolW: poolOut[2],
		mult: int64(math.Round(inScale * ws / outScale * (1 << qShift))),
		w2:   make([]uint64, np*9),
		c:    make([]int64, outC),
		u:    make([]int64, (h+2)*(w+2)),
		rs:   make([]int64, (hEff+2)*wEff),
		s:    make([]int64, hEff*wEff),
		accA: make([]int32, hEff*wEff),
		accB: make([]int32, hEff*wEff),
		out:  make([]int8, outC*poolOut[1]*poolOut[2]),
	}
	for i := range q.u {
		q.u[i] = 128 // interior is overwritten every forward; the halo stays
	}
	for oc := 0; oc < outC; oc++ {
		sw := int64(0)
		for k := 0; k < 9; k++ {
			qw := int64(clampRound8(wd[oc*9+k] / ws))
			sw += qw + 128
			lane := oc & 1
			q.w2[(oc/2)*9+k] |= uint64(qw+128) << (32 * lane)
		}
		q.c[oc] = int64(int32(math.Round(bd[oc]/(inScale*ws)))) - 128*sw + 9*16384
	}
	if outC%2 == 1 { // duplicate the tail channel into the idle high lane
		for k := 0; k < 9; k++ {
			v := q.w2[(outC/2)*9+k]
			q.w2[(outC/2)*9+k] = v | v<<32
		}
	}
	return q, poolOut, outScale
}

func (q *qConvReLUPool) qforward(in []int8) []int8 {
	h, w, wEff := q.inH, q.inW, q.wEff
	hw := w + 2
	for y := 0; y < h; y++ {
		src := in[y*w : (y+1)*w]
		dst := q.u[(y+1)*hw+1:][:len(src)]
		for x, v := range src {
			dst[x] = int64(v) + 128
		}
	}
	// Separable box filter for the Σu plane: horizontal 3-sums per haloed
	// row, then vertical 3-sums down the columns. Loads go highest index
	// first so one bounds check covers each row.
	for y := 0; y < q.hEff+2; y++ {
		row := q.u[y*hw : y*hw+wEff+2]
		dst := q.rs[y*wEff : y*wEff+wEff]
		for x := range dst {
			v2 := row[x+2]
			v0, v1 := row[x], row[x+1]
			dst[x] = v0 + v1 + v2
		}
	}
	for y := 0; y < q.hEff; y++ {
		dst := q.s[y*wEff : y*wEff+wEff]
		r0 := q.rs[y*wEff:][:len(dst)]
		r1 := q.rs[(y+1)*wEff:][:len(dst)]
		r2 := q.rs[(y+2)*wEff:][:len(dst)]
		for x := range dst {
			dst[x] = r0[x] + r1[x] + r2[x]
		}
	}
	np := (q.outC + 1) / 2
	for pi := 0; pi < np; pi++ {
		ocA := 2 * pi
		ocB := ocA + 1
		kw := q.w2[pi*9 : pi*9+9 : pi*9+9]
		k0, k1, k2 := kw[0], kw[1], kw[2]
		k3, k4, k5 := kw[3], kw[4], kw[5]
		k6, k7, k8 := kw[6], kw[7], kw[8]
		cA := q.c[ocA]
		cB := cA
		if ocB < q.outC {
			cB = q.c[ocB]
		}
		idx := 0
		for y := 0; y < q.hEff; y++ {
			r0 := q.u[y*hw : y*hw+wEff+2]
			r1 := q.u[(y+1)*hw : (y+1)*hw+wEff+2]
			r2 := q.u[(y+2)*hw : (y+2)*hw+wEff+2]
			sr := q.s[y*wEff : y*wEff+wEff]
			aA := q.accA[idx:][:len(sr)]
			aB := q.accB[idx:][:len(sr)]
			// Unroll by two: adjacent windows share six of their nine input
			// loads, and the two accumulator chains run independently.
			x := 0
			for ; x+1 < len(sr); x += 2 {
				a3 := uint64(r0[x+3])
				a0, a1, a2 := uint64(r0[x]), uint64(r0[x+1]), uint64(r0[x+2])
				b3 := uint64(r1[x+3])
				b0, b1, b2 := uint64(r1[x]), uint64(r1[x+1]), uint64(r1[x+2])
				c3 := uint64(r2[x+3])
				c0, c1, c2 := uint64(r2[x]), uint64(r2[x+1]), uint64(r2[x+2])
				acc := k0*a0 + k1*a1 + k2*a2
				acc += k3*b0 + k4*b1 + k5*b2
				acc += k6*c0 + k7*c1 + k8*c2
				acc2 := k0*a1 + k1*a2 + k2*a3
				acc2 += k3*b1 + k4*b2 + k5*b3
				acc2 += k6*c1 + k7*c2 + k8*c3
				corr := sr[x] << 7
				corr2 := sr[x+1] << 7
				aA[x] = int32(int64(uint32(acc)) - corr + cA)
				aB[x] = int32(int64(acc>>32) - corr + cB)
				aA[x+1] = int32(int64(uint32(acc2)) - corr2 + cA)
				aB[x+1] = int32(int64(acc2>>32) - corr2 + cB)
			}
			for ; x < len(sr); x++ {
				a2 := uint64(r0[x+2])
				a0, a1 := uint64(r0[x]), uint64(r0[x+1])
				b2 := uint64(r1[x+2])
				b0, b1 := uint64(r1[x]), uint64(r1[x+1])
				c2 := uint64(r2[x+2])
				c0, c1 := uint64(r2[x]), uint64(r2[x+1])
				acc := k0*a0 + k1*a1 + k2*a2
				acc += k3*b0 + k4*b1 + k5*b2
				acc += k6*c0 + k7*c1 + k8*c2
				corr := sr[x] << 7
				aA[x] = int32(int64(uint32(acc)) - corr + cA)
				aB[x] = int32(int64(acc>>32) - corr + cB)
			}
			idx += wEff
		}
		q.poolPlane(q.accA, ocA)
		if ocB < q.outC {
			q.poolPlane(q.accB, ocB)
		}
	}
	return q.out
}

// poolPlane max-pools one channel's int32 conv accumulators and requantizes
// each window's winner, clamping negatives to zero (the fused ReLU).
func (q *qConvReLUPool) poolPlane(acc []int32, oc int) {
	idx := oc * q.poolH * q.poolW
	for py := 0; py < q.poolH; py++ {
		iy0 := py * q.pStride
		ky1 := q.pSize
		if iy0+ky1 > q.hEff {
			ky1 = q.hEff - iy0
		}
		for px := 0; px < q.poolW; px++ {
			ix0 := px * q.pStride
			kx1 := q.pSize
			if ix0+kx1 > q.wEff {
				kx1 = q.wEff - ix0
			}
			o := iy0*q.wEff + ix0
			var best int32
			// Unclipped 2×2/3×3 windows take a fully unrolled balanced max
			// tree (CMOVs — a compare-and-track branch on the running max is
			// data-dependent and mispredicts); anything clipped or larger
			// falls back to the scanning loop.
			switch {
			case ky1 == 3 && kx1 == 3:
				wE := q.wEff
				r2 := acc[o+2*wE : o+2*wE+3]
				r0, r1 := acc[o:o+3], acc[o+wE:o+wE+3]
				best = max(max(r0[0], r0[1]), max(r0[2], r1[0]))
				best = max(best, max(r1[1], r1[2]))
				best = max(best, max(r2[0], max(r2[1], r2[2])))
			case ky1 == 2 && kx1 == 2:
				wE := q.wEff
				r1 := acc[o+wE : o+wE+2]
				r0 := acc[o : o+2]
				best = max(max(r0[0], r0[1]), max(r1[0], r1[1]))
			default:
				best = acc[o]
				for ky := 0; ky < ky1; ky++ {
					row := (iy0+ky)*q.wEff + ix0
					for _, v := range acc[row : row+kx1] {
						best = max(best, v)
					}
				}
			}
			q.out[idx] = max(requantize(best, q.mult), 0)
			idx++
		}
	}
}

// qDense is an int8 fully-connected layer. The network's final Dense keeps
// its int32 accumulators (requant false); interior ones rescale to int8.
// When the input fits the SWAR overflow bound, forward32 runs the same
// offset-domain dual-channel scheme as the fused conv block: one 64-bit
// multiply per input feeds two output channels, with Σu computed once and
// the remaining correction folded into per-channel constants.
type qDense struct {
	in, out int
	w       []int8
	b       []int32
	mult    int64
	requant bool
	out8    []int8
	out32   []int32
	w2      []uint64 // per oc pair: in packed offset weights w'a | w'b<<32
	c       []int64  // per oc: bias − 128·Σw' + in·16384
	u       []uint64 // offset input x+128
}

// qDenseSwarMaxIn bounds the SWAR dense input width: each 32-bit lane
// accumulates at most in·255·255, which must stay below 2^32.
const qDenseSwarMaxIn = 66052

// initSwar packs the offset-weight pairs; no-op when the input is too wide
// for the lane bound (forward32 then keeps the scalar path).
func (d *qDense) initSwar() {
	if d.in > qDenseSwarMaxIn {
		return
	}
	np := (d.out + 1) / 2
	d.w2 = make([]uint64, np*d.in)
	d.c = make([]int64, d.out)
	d.u = make([]uint64, d.in)
	for o := 0; o < d.out; o++ {
		sw := int64(0)
		row := d.w[o*d.in : (o+1)*d.in]
		lane := uint(32 * (o & 1))
		dst := d.w2[(o/2)*d.in : (o/2+1)*d.in]
		for i, w := range row {
			wp := int64(w) + 128
			sw += wp
			dst[i] |= uint64(wp) << lane
		}
		d.c[o] = int64(d.b[o]) - 128*sw + int64(d.in)*16384
	}
	if d.out%2 == 1 {
		dst := d.w2[(d.out/2)*d.in : (d.out/2+1)*d.in]
		for i, v := range dst {
			dst[i] = v | v<<32
		}
	}
}

func (d *qDense) qforward(in []int8) []int8 {
	d.forward32(in)
	for o, acc := range d.out32 {
		d.out8[o] = requantize(acc, d.mult)
	}
	return d.out8
}

func (d *qDense) forward32(in []int8) []int32 {
	if d.w2 == nil {
		for o := 0; o < d.out; o++ {
			row := d.w[o*d.in : (o+1)*d.in]
			acc := d.b[o]
			for i, w := range row {
				acc += int32(w) * int32(in[i])
			}
			d.out32[o] = acc
		}
		return d.out32
	}
	u := d.u[:d.in]
	su := int64(0)
	for i, v := range in[:d.in] {
		uv := int64(v) + 128
		u[i] = uint64(uv)
		su += uv
	}
	corr := su << 7
	np := (d.out + 1) / 2
	for p := 0; p < np; p++ {
		row := d.w2[p*d.in : (p+1)*d.in]
		ur := u[:len(row)]
		acc := uint64(0)
		i := 0
		for ; i+3 < len(row); i += 4 {
			w3 := row[i+3]
			w0, w1, w2 := row[i], row[i+1], row[i+2]
			u3 := ur[i+3]
			u0, u1, u2 := ur[i], ur[i+1], ur[i+2]
			acc += w0*u0 + w1*u1 + w2*u2 + w3*u3
		}
		for ; i < len(row); i++ {
			acc += row[i] * ur[i]
		}
		oA := 2 * p
		d.out32[oA] = int32(int64(uint32(acc)) - corr + d.c[oA])
		if oB := oA + 1; oB < d.out {
			d.out32[oB] = int32(int64(acc>>32) - corr + d.c[oB])
		}
	}
	return d.out32
}

// qReLU clamps negatives in place; the activation scale passes through.
type qReLU struct{}

func (qReLU) qforward(in []int8) []int8 {
	for i, v := range in {
		if v < 0 {
			in[i] = 0
		}
	}
	return in
}

// qMaxPool is an int8 max pool; max commutes with the monotone
// quantization, so the scale passes through.
type qMaxPool struct {
	ch, inH, inW int
	outH, outW   int
	size, stride int
	out          []int8
}

func (p *qMaxPool) qforward(in []int8) []int8 {
	idx := 0
	for c := 0; c < p.ch; c++ {
		cBase := c * p.inH * p.inW
		for oy := 0; oy < p.outH; oy++ {
			iy0 := oy * p.stride
			ky1 := p.size
			if iy0+ky1 > p.inH {
				ky1 = p.inH - iy0
			}
			for ox := 0; ox < p.outW; ox++ {
				ix0 := ox * p.stride
				kx1 := p.size
				if ix0+kx1 > p.inW {
					kx1 = p.inW - ix0
				}
				best := in[cBase+iy0*p.inW+ix0]
				for ky := 0; ky < ky1; ky++ {
					row := cBase + (iy0+ky)*p.inW + ix0
					for _, v := range in[row : row+kx1] {
						if v > best {
							best = v
						}
					}
				}
				p.out[idx] = best
				idx++
			}
		}
	}
	return p.out
}

// qAvgPool is a rounded integer mean (round-half-up); like the float layer,
// clipped windows average over the cells present, and the scale passes
// through.
type qAvgPool struct {
	ch, inH, inW int
	outH, outW   int
	size, stride int
	out          []int8
}

func (p *qAvgPool) qforward(in []int8) []int8 {
	idx := 0
	for c := 0; c < p.ch; c++ {
		cBase := c * p.inH * p.inW
		for oy := 0; oy < p.outH; oy++ {
			iy0 := oy * p.stride
			ky1 := p.size
			if iy0+ky1 > p.inH {
				ky1 = p.inH - iy0
			}
			for ox := 0; ox < p.outW; ox++ {
				ix0 := ox * p.stride
				kx1 := p.size
				if ix0+kx1 > p.inW {
					kx1 = p.inW - ix0
				}
				sum := int32(0)
				for ky := 0; ky < ky1; ky++ {
					row := cBase + (iy0+ky)*p.inW + ix0
					for _, v := range in[row : row+kx1] {
						sum += int32(v)
					}
				}
				count := int32(ky1 * kx1)
				// Floor((2·sum + count) / (2·count)) = round-half-up mean.
				num := 2*sum + count
				den := 2 * count
				q := num / den
				if num < 0 && num%den != 0 {
					q--
				}
				if q > 127 {
					q = 127
				}
				if q < -127 {
					q = -127
				}
				p.out[idx] = int8(q)
				idx++
			}
		}
	}
	return p.out
}

// qFlatten is a no-op: single-sample activations are already contiguous in
// (C, H, W) row-major order.
type qFlatten struct{}

func (qFlatten) qforward(in []int8) []int8 { return in }

// QuantizedNetwork is an int8 fixed-point inference copy of a trained
// Network. It shares nothing with the source network; Forward and Classify
// allocate nothing. A QuantizedNetwork is not safe for concurrent use.
type QuantizedNetwork struct {
	inShape    []int
	inScale    float64
	inBuf      []int8
	layers     []qlayer
	last       *qDense
	logitScale float64
	outF       *tensor.Tensor
}

// QuantizeNetwork lowers a trained float network to int8 fixed point,
// calibrating each layer's activation scale from float forward passes over
// calib (which must be non-empty and representative of inference inputs).
// The source network is only read — its weights are unchanged — but its
// forward scratch is clobbered by the calibration passes. Networks with
// per-position kernel replicas cannot be quantized; the network must end in
// a Dense layer (the integer logits).
func QuantizeNetwork(n *Network, calib []Sample) (*QuantizedNetwork, error) {
	if len(calib) == 0 {
		return nil, errors.New("cnn: quantization needs a non-empty calibration set")
	}
	if len(n.layers) == 0 {
		return nil, errors.New("cnn: cannot quantize an empty network")
	}
	// Calibrate: per-layer output magnitude over the calibration set, layer
	// by layer (unfused, so every layer's own output is visible) in packed
	// blocks. max|x| does not depend on how samples are grouped.
	actMax := make([]float64, len(n.layers))
	inMax := 0.0
	n.invalidateBatchWeights()
	slot := n.slot0()
	for lo := 0; lo < len(calib); lo += blockSize {
		x := slot.pack(calib, slot.span(lo, min(lo+blockSize, len(calib))))
		if m := maxAbs(x.Data()); m > inMax {
			inMax = m
		}
		for li, l := range n.layers {
			x = l.forwardBatch(x)
			if m := maxAbs(x.Data()); m > actMax[li] {
				actMax[li] = m
			}
		}
	}

	shape := append([]int(nil), n.inShape...)
	scale := qscale(inMax)
	vol := 1
	for _, d := range shape {
		vol *= d
	}
	q := &QuantizedNetwork{
		inShape: append([]int(nil), n.inShape...),
		inScale: scale,
		inBuf:   make([]int8, vol),
	}
	for li := 0; li < len(n.layers); li++ {
		l := n.layers[li]
		lastLayer := li == len(n.layers)-1
		// Fused fast path: a single-channel 3×3/stride-1/pad-1 conv feeding
		// ReLU and a max pool lowers to one block that pools in the int32
		// accumulator domain (bit-identical to the layered lowering; see the
		// qConvReLUPool comment).
		if !quantDisableFusion && li+2 < len(n.layers) {
			if t, ok := l.(*Conv2D); ok && t.repK == nil &&
				t.InC == 1 && t.KH == 3 && t.KW == 3 && t.Stride == 1 && t.Pad == 1 {
				if _, ok := n.layers[li+1].(*ReLU); ok {
					if p, ok := n.layers[li+2].(*MaxPool2D); ok {
						blk, outShape, outScale := newQConvReLUPool(t, p, shape, scale, actMax[li])
						q.layers = append(q.layers, blk)
						shape, scale = outShape, outScale
						li += 2
						continue
					}
				}
			}
		}
		switch t := l.(type) {
		case *Conv2D:
			if t.repK != nil {
				return nil, errors.New("cnn: cannot quantize a conv with per-position kernel replicas")
			}
			if lastLayer {
				return nil, errors.New("cnn: quantized network must end in a dense layer")
			}
			wd := t.weight.Data()
			ws := qscale(maxAbs(wd))
			qw := make([]int8, len(wd))
			for i, v := range wd {
				qw[i] = clampRound8(v / ws)
			}
			bd := t.bias.Data()
			qb := make([]int32, len(bd))
			for i, v := range bd {
				qb[i] = int32(math.Round(v / (scale * ws)))
			}
			outScale := qscale(actMax[li])
			out := t.OutShape(shape)
			qc := &qConv{
				inC: shape[0], inH: shape[1], inW: shape[2],
				outC: out[0], outH: out[1], outW: out[2],
				kh: t.KH, kw: t.KW, stride: t.Stride, pad: t.Pad,
				w: qw, b: qb,
				mult: int64(math.Round(scale * ws / outScale * (1 << qShift))),
				out:  make([]int8, out[0]*out[1]*out[2]),
			}
			q.layers = append(q.layers, qc)
			shape, scale = out, outScale
		case *Dense:
			wd := t.weight.Data()
			ws := qscale(maxAbs(wd))
			qw := make([]int8, len(wd))
			for i, v := range wd {
				qw[i] = clampRound8(v / ws)
			}
			bd := t.bias.Data()
			qb := make([]int32, len(bd))
			for i, v := range bd {
				qb[i] = int32(math.Round(v / (scale * ws)))
			}
			qd := &qDense{
				in: t.In, out: t.Out,
				w: qw, b: qb,
				out32: make([]int32, t.Out),
			}
			if !quantDisableFusion {
				qd.initSwar()
			}
			if lastLayer {
				q.last = qd
				q.logitScale = scale * ws
			} else {
				outScale := qscale(actMax[li])
				qd.requant = true
				qd.mult = int64(math.Round(scale * ws / outScale * (1 << qShift)))
				qd.out8 = make([]int8, t.Out)
				q.layers = append(q.layers, qd)
				scale = outScale
			}
			shape = t.OutShape(shape)
		case *ReLU:
			if lastLayer {
				return nil, errors.New("cnn: quantized network must end in a dense layer")
			}
			q.layers = append(q.layers, qReLU{})
		case *MaxPool2D:
			if lastLayer {
				return nil, errors.New("cnn: quantized network must end in a dense layer")
			}
			out := t.OutShape(shape)
			q.layers = append(q.layers, &qMaxPool{
				ch: shape[0], inH: shape[1], inW: shape[2],
				outH: out[1], outW: out[2],
				size: t.Size, stride: t.Stride,
				out: make([]int8, out[0]*out[1]*out[2]),
			})
			shape = out
		case *AvgPool2D:
			if lastLayer {
				return nil, errors.New("cnn: quantized network must end in a dense layer")
			}
			out := t.OutShape(shape)
			q.layers = append(q.layers, &qAvgPool{
				ch: shape[0], inH: shape[1], inW: shape[2],
				outH: out[1], outW: out[2],
				size: t.Size, stride: t.Stride,
				out: make([]int8, out[0]*out[1]*out[2]),
			})
			shape = out
		case *Flatten:
			if lastLayer {
				return nil, errors.New("cnn: quantized network must end in a dense layer")
			}
			q.layers = append(q.layers, qFlatten{})
			shape = t.OutShape(shape)
		default:
			return nil, fmt.Errorf("cnn: cannot quantize layer %q", l.Name())
		}
	}
	if q.last == nil {
		return nil, errors.New("cnn: quantized network must end in a dense layer")
	}
	q.outF = tensor.New(q.last.out)
	return q, nil
}

// InScale returns the input quantization scale (input ≈ int8·InScale).
func (q *QuantizedNetwork) InScale() float64 { return q.inScale }

// forwardInt runs the integer pipeline and returns the int32 logit
// accumulators (scratch owned by the network).
func (q *QuantizedNetwork) forwardInt(in *tensor.Tensor) []int32 {
	d := in.Data()
	if len(d) != len(q.inBuf) {
		panic(fmt.Sprintf("cnn: quantized input size %d, want %d", len(d), len(q.inBuf)))
	}
	quantizeInput(q.inBuf, d, 1/q.inScale)
	x := q.inBuf
	for _, l := range q.layers {
		x = l.qforward(x)
	}
	return q.last.forward32(x)
}

// Classify returns the argmax class of the integer logits (first index on
// ties). It allocates nothing.
func (q *QuantizedNetwork) Classify(in *tensor.Tensor) int {
	logits := q.forwardInt(in)
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best
}

// Forward returns the dequantized logits. The returned tensor is scratch
// owned by the network, overwritten by the next Forward call; the call
// allocates nothing.
func (q *QuantizedNetwork) Forward(in *tensor.Tensor) *tensor.Tensor {
	logits := q.forwardInt(in)
	out := q.outF.Data()
	for i, v := range logits {
		out[i] = float64(v) * q.logitScale
	}
	return q.outF
}
