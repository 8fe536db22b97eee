package cnn

// Int8 fixed-point inference (Neuro.ZERO-style). A trained float network is
// lowered once into a QuantizedNetwork whose forward pass computes exactly
// the integers an int8 MCU pipeline computes — int8 activations and weights,
// int32 accumulators — the arithmetic a zero-energy harvester-class node can
// afford. Per-layer activation scales are calibrated from float forward
// passes over a calibration set.
//
// Quantization is per-tensor symmetric: value ≈ q·scale with q ∈ [-127,127]
// and zero-point 0, so the inner loops are plain multiply-accumulates with
// no zero-point cross terms. Weights use their own maxabs/127 scale per
// layer; activations use the maxabs/127 of the layer's float outputs over
// the calibration set; biases are pre-scaled to the accumulator's scale
// (inScale·wScale) as int32. Between layers the int32 accumulator is
// rescaled to the next activation scale with a fixed-point multiplier
// (round(m·2^24), round-half-up, saturating to ±127). ReLU, max pooling and
// flatten operate directly on the int8 values (the scale passes through);
// average pooling takes the round-half-up integer mean. The final Dense
// layer skips requantization and keeps its int32 accumulators: Classify is
// an argmax over them.
//
// # One kernel family
//
// The integers run on the packed float kernels of batch.go, the same code
// as float inference. Each Conv2D and Dense is lowered to a fresh layer of
// the same type whose weights and biases are the quantized integers stored
// as float64, and every other layer to a fresh copy; a QuantizedNetwork
// runs one sample as a block of one through their forwardBatch, applying
// requantize in place after each interior Conv2D and Dense and the
// round-half-up step after each AvgPool2D. The result is exact, not close:
// QuantizeNetwork refuses any layer whose bias magnitude plus fan-in·127²
// could reach 2³¹, so every partial sum of every accumulator, in any order,
// is an integer below 2³¹ and exactly represented in float64, and the
// finished sum equals the int32 accumulator. AvgPool2D computes sum/count
// correctly rounded. The exact mean is either a half-way point, which is
// exactly representable, or at least 1/(2·count) from one, far more than
// the rounding error, so floor(mean+0.5) is the integer round-half-up mean.
// quant_ref_test.go holds the plain int8 loops this must match at
// tolerance 0.
//
// Once constructed, Classify allocates nothing.

import (
	"errors"
	"fmt"
	"math"

	"zeiot/internal/tensor"
)

// qShift is the fixed-point fraction width of requantization multipliers.
const qShift = 24

// requantize rescales an int32 accumulator to the next activation scale:
// round-half-up fixed-point multiply, saturating to the symmetric int8
// range. Accumulators stay below 2³¹ and multipliers at most 2³² (both
// checked by QuantizeNetwork), so the int64 product cannot overflow.
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

// quantizeInput writes clampRound8(v*inv) over a slice as float64,
// restructured for the hot path: clamping in the float domain first keeps
// the float→int conversion in range, and for |t| ≤ 127 the sum
// t+copysign(0.5, t) is exact, so truncation equals math.Round's
// round-half-away-from-zero — identical results for every finite input.
func quantizeInput(dst, src []float64, inv float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		t := v * inv
		if t > 127 {
			t = 127
		}
		if t < -127 {
			t = -127
		}
		dst[i] = float64(int8(int32(t + math.Copysign(0.5, t))))
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

// qStep is one lowered layer and the integer step applied in place to its
// packed output.
type qStep struct {
	layer   Layer
	requant bool  // rescale the accumulators to int8 with mult
	mult    int64 // requantization multiplier at 2^-qShift
	round   bool  // round AvgPool2D's means half up
}

// QuantizedNetwork is an int8 fixed-point inference copy of a trained
// Network. It shares nothing with the source network; Classify allocates
// nothing. A QuantizedNetwork is not safe for concurrent use.
type QuantizedNetwork struct {
	inScale float64
	in      *tensor.Tensor // the quantized input, a (C,1,H,W) or (1,F) block
	steps   []qStep
}

// QuantizeNetwork lowers a trained float network to int8 fixed point,
// calibrating each layer's activation scale from float forward passes over
// calib (which must be non-empty and representative of inference inputs).
// The source network is only read — its weights are unchanged — but its
// forward scratch is clobbered by the calibration passes. Networks with
// per-position kernel replicas cannot be quantized; the network must end in
// a Dense layer (the integer logits). A Conv2D or Dense whose int32
// accumulator could overflow, or whose requantization multiplier exceeds
// 2³², is an error naming the layer.
func QuantizeNetwork(n *Network, calib []Sample) (*QuantizedNetwork, error) {
	if len(calib) == 0 {
		return nil, errors.New("cnn: quantization needs a non-empty calibration set")
	}
	if len(n.layers) == 0 {
		return nil, errors.New("cnn: cannot quantize an empty network")
	}
	if _, ok := n.layers[len(n.layers)-1].(*Dense); !ok {
		return nil, errors.New("cnn: quantized network must end in a dense layer")
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

	scale := qscale(inMax)
	q := &QuantizedNetwork{inScale: scale}
	if in := n.inShape; len(in) == 3 {
		q.in = tensor.New(in[0], 1, in[1], in[2])
	} else {
		q.in = tensor.New(1, in[0])
	}
	for li, l := range n.layers {
		var st qStep
		var ws float64 // the weight scale of a Conv2D or Dense, else 0
		var err error
		switch t := l.(type) {
		case *Conv2D:
			if t.repK != nil {
				return nil, errors.New("cnn: cannot quantize a conv with per-position kernel replicas")
			}
			c := &Conv2D{InC: t.InC, OutC: t.OutC, KH: t.KH, KW: t.KW, Stride: t.Stride, Pad: t.Pad}
			c.weight, c.bias, ws, err = quantizeParams(t.weight, t.bias, scale, t.InC*t.KH*t.KW)
			st.layer = c
		case *Dense:
			d := &Dense{In: t.In, Out: t.Out}
			d.weight, d.bias, ws, err = quantizeParams(t.weight, t.bias, scale, t.In)
			st.layer = d
		case *ReLU:
			st.layer = NewReLU()
		case *MaxPool2D:
			st.layer = NewMaxPool2D(t.Size, t.Stride)
		case *AvgPool2D:
			st.layer = NewAvgPool2D(t.Size, t.Stride)
			st.round = true
		case *Flatten:
			st.layer = NewFlatten()
		default:
			return nil, fmt.Errorf("cnn: cannot quantize layer %q", l.Name())
		}
		if err != nil {
			return nil, fmt.Errorf("cnn: cannot quantize layer %d (%s): %w", li, l.Name(), err)
		}
		// The last layer keeps its int32 accumulators as the logits.
		if ws != 0 && li < len(n.layers)-1 { // an interior Conv2D or Dense
			outScale := qscale(actMax[li])
			mult := math.Round(scale * ws / outScale * (1 << qShift))
			if !(mult <= 1<<32) {
				return nil, fmt.Errorf("cnn: cannot quantize layer %d (%s): requantize multiplier %g exceeds 2^32",
					li, l.Name(), mult)
			}
			st.requant, st.mult = true, int64(mult)
			scale = outScale
		}
		q.steps = append(q.steps, st)
	}
	// One pass sizes every layer's scratch, so Classify allocates nothing
	// from the first call on.
	q.forwardInt(calib[0].Input)
	return q, nil
}

// quantizeParams returns a layer's quantized weights clampRound8(w/ws) and
// its biases at the accumulator scale inScale·ws, both as float64, and the
// weight scale ws. It fails when an accumulator — a bias plus fanIn terms of
// magnitude at most 127·127 — could reach 2³¹.
func quantizeParams(w, b *tensor.Tensor, inScale float64, fanIn int) (qw, qb *tensor.Tensor, ws float64, err error) {
	ws = qscale(maxAbs(w.Data()))
	qw = tensor.New(w.Shape()...)
	for i, v := range w.Data() {
		qw.Data()[i] = float64(clampRound8(v / ws))
	}
	qb = tensor.New(b.Shape()...)
	for i, v := range b.Data() {
		r := math.Round(v / (inScale * ws))
		if !(math.Abs(r)+float64(fanIn)*127*127 < 1<<31) {
			return nil, nil, 0, fmt.Errorf("bias %g and fan-in %d overflow the int32 accumulator", r, fanIn)
		}
		qb.Data()[i] = r
	}
	return qw, qb, ws, nil
}

// forwardInt runs the integer pipeline and returns the int32 logit
// accumulators as float64 (scratch owned by the network).
func (q *QuantizedNetwork) forwardInt(in *tensor.Tensor) []float64 {
	d := in.Data()
	x := q.in
	if len(d) != x.Size() {
		panic(fmt.Sprintf("cnn: quantized input size %d, want %d", len(d), x.Size()))
	}
	quantizeInput(x.Data(), d, 1/q.inScale)
	for _, st := range q.steps {
		x = st.layer.forwardBatch(x)
		xd := x.Data()
		switch {
		case st.requant:
			for i, v := range xd {
				xd[i] = float64(requantize(int32(v), st.mult))
			}
		case st.round:
			for i, v := range xd {
				xd[i] = math.Floor(v + 0.5)
			}
		}
	}
	return x.Data()
}

// Classify returns the argmax class of the integer logits (first index on
// ties). It allocates nothing.
func (q *QuantizedNetwork) Classify(in *tensor.Tensor) int {
	return argmax(q.forwardInt(in))
}
