package cnn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// numericalGrad estimates dLoss/dtheta for parameter element (t, i) by
// central differences, where loss = CrossEntropy(net.Forward(in), label).
func numericalGrad(n *Network, in *tensor.Tensor, label int, t *tensor.Tensor, i int) float64 {
	const h = 1e-5
	orig := t.Data()[i]
	t.Data()[i] = orig + h
	lp, _ := CrossEntropy(n.Forward(in), label)
	t.Data()[i] = orig - h
	lm, _ := CrossEntropy(n.Forward(in), label)
	t.Data()[i] = orig
	return (lp - lm) / (2 * h)
}

// sumOf returns the sum of t's elements.
func sumOf(t *tensor.Tensor) float64 {
	s := 0.0
	for _, v := range t.Data() {
		s += v
	}
	return s
}

func buildTinyNet(seed uint64) *Network {
	s := rng.New(seed)
	conv := NewConv2D(1, 2, 3, 3, 1, 1, s.Split("conv"))
	pool := NewMaxPool2D(2, 2)
	flat := NewFlatten()
	// input 1x6x6 -> conv(pad1) 2x6x6 -> pool 2x3x3 -> 18 -> dense 8 -> dense 3
	d1 := NewDense(18, 8, s.Split("d1"))
	d2 := NewDense(8, 3, s.Split("d2"))
	return NewNetwork([]int{1, 6, 6}, conv, NewReLU(), pool, flat, d1, NewReLU(), d2)
}

// block1 views one (C,H,W) or (F) sample as a packed block of one: a
// (C,1,H,W) or (1,F) tensor over the same data.
func block1(t *tensor.Tensor) *tensor.Tensor {
	if s := t.Shape(); len(s) == 3 {
		return tensor.FromSlice(t.Data(), s[0], 1, s[1], s[2])
	}
	return tensor.FromSlice(t.Data(), 1, t.Size())
}

// unblock1 views a packed block of one as its sample: (C,1,H,W) as (C,H,W)
// and (1,F) as (F).
func unblock1(t *tensor.Tensor) *tensor.Tensor {
	if s := t.Shape(); len(s) == 4 {
		return tensor.FromSlice(t.Data(), s[0], s[2], s[3])
	}
	return tensor.FromSlice(t.Data(), t.Size())
}

// inputGrad runs in through net's layers one by one (unfused, so every
// layer's backward sees its own forward state) as a block of one and
// returns dLoss/dInput for label, accumulating the parameter gradients.
func inputGrad(net *Network, in *tensor.Tensor, label int) *tensor.Tensor {
	x := block1(in)
	for _, l := range net.Layers() {
		x = l.forwardBatch(x)
	}
	_, grad := CrossEntropy(unblock1(x), label)
	g := block1(grad)
	layers := net.Layers()
	for i := len(layers) - 1; i >= 0; i-- {
		g = layers[i].backwardBatch(g, true)
	}
	return unblock1(g)
}

func randomInput(s *rng.Stream, shape ...int) *tensor.Tensor {
	in := tensor.New(shape...)
	d := in.Data()
	for i := range d {
		d[i] = s.NormMeanStd(0, 1)
	}
	return in
}

func TestGradientCheckAllLayers(t *testing.T) {
	n := buildTinyNet(1)
	s := rng.New(99)
	in := randomInput(s, 1, 6, 6)
	label := 1

	n.ZeroGrads()
	logits := n.Forward(in)
	_, grad := CrossEntropy(logits, label)
	n.Backward(grad)

	checked := 0
	for _, l := range n.Layers() {
		pl, ok := l.(ParamLayer)
		if !ok {
			continue
		}
		params, grads := pl.Params(), pl.Grads()
		for pi, p := range params {
			// Check a handful of elements per tensor.
			stride := p.Size()/5 + 1
			for i := 0; i < p.Size(); i += stride {
				want := numericalGrad(n, in, label, p, i)
				got := grads[pi].Data()[i]
				if math.Abs(want-got) > 1e-4*(1+math.Abs(want)) {
					t.Errorf("%s param %d elem %d: analytic %.8f numeric %.8f", l.Name(), pi, i, got, want)
				}
				checked++
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only checked %d gradient elements", checked)
	}
}

func TestGradientCheckInputGrad(t *testing.T) {
	// Input gradient via backprop must match numeric differentiation of the
	// loss with respect to the input.
	n := buildTinyNet(2)
	s := rng.New(7)
	in := randomInput(s, 1, 6, 6)
	label := 0

	n.ZeroGrads()
	g := inputGrad(n, in, label)
	const h = 1e-5
	for i := 0; i < in.Size(); i += 7 {
		orig := in.Data()[i]
		in.Data()[i] = orig + h
		lp, _ := CrossEntropy(n.Forward(in), label)
		in.Data()[i] = orig - h
		lm, _ := CrossEntropy(n.Forward(in), label)
		in.Data()[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(want-g.Data()[i]) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("input grad elem %d: analytic %.8f numeric %.8f", i, g.Data()[i], want)
		}
	}
}

// softmaxOf recovers the training engine's softmax from the gradient
// CrossEntropy returns, which is softmax(logits) - onehot(label).
func softmaxOf(logits *tensor.Tensor) *tensor.Tensor {
	_, grad := CrossEntropy(logits, 0)
	grad.Data()[0]++
	return grad
}

func TestSoftmaxProperties(t *testing.T) {
	s := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		logits := randomInput(s, 10)
		logits.ScaleInPlace(20) // stress stability
		p := softmaxOf(logits)
		sum := sumOf(p)
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("softmax sums to %v", sum)
		}
		for _, v := range p.Data() {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("softmax produced %v", v)
			}
		}
		if tensor.Argmax(p.Data()) != tensor.Argmax(logits.Data()) {
			t.Fatal("softmax changed argmax")
		}
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	logits := tensor.FromSlice([]float64{1, 2, 3}, 3)
	shifted := tensor.FromSlice([]float64{101, 102, 103}, 3)
	if !tensor.Equal(softmaxOf(logits), softmaxOf(shifted), 1e-12) {
		t.Fatal("softmax not shift invariant")
	}
}

func TestCrossEntropyGradientSumsToZero(t *testing.T) {
	s := rng.New(5)
	logits := randomInput(s, 6)
	_, grad := CrossEntropy(logits, 2)
	if math.Abs(sumOf(grad)) > 1e-9 {
		t.Fatalf("CE gradient sums to %v, want 0", sumOf(grad))
	}
}

func TestConvOutShape(t *testing.T) {
	s := rng.New(1)
	cases := []struct {
		inC, outC, k, stride, pad int
		in, want                  []int
	}{
		{1, 4, 3, 1, 0, []int{1, 8, 8}, []int{4, 6, 6}},
		{1, 4, 3, 1, 1, []int{1, 8, 8}, []int{4, 8, 8}},
		{2, 3, 3, 2, 1, []int{2, 9, 9}, []int{3, 5, 5}},
	}
	for _, tc := range cases {
		c := NewConv2D(tc.inC, tc.outC, tc.k, tc.k, tc.stride, tc.pad, s)
		got := c.OutShape(tc.in)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("OutShape(%v) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}

func TestConvKnownValues(t *testing.T) {
	// 1x1 kernel = per-pixel scaling.
	s := rng.New(1)
	c := NewConv2D(1, 1, 1, 1, 1, 0, s)
	c.Weight().Set(2, 0, 0, 0, 0)
	c.Bias().Set(1, 0)
	in := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	out := unblock1(c.forwardBatch(block1(in)))
	want := tensor.FromSlice([]float64{3, 5, 7, 9}, 1, 2, 2)
	if !tensor.Equal(out, want, 1e-12) {
		t.Fatalf("conv 1x1 = %v", out)
	}
}

// TestPoolWindowsInsideInput pins that no pooling window is clipped: a
// window wider than its input is rejected, though Go's truncating division
// alone would give (2-3)/3+1 = 1 output row.
func TestPoolWindowsInsideInput(t *testing.T) {
	l := NewMaxPool2D(3, 3)
	if got := l.OutShape([]int{1, 3, 7}); !slices.Equal(got, []int{1, 1, 2}) {
		t.Errorf("OutShape([1 3 7]) = %v, want [1 1 2]", got)
	}
	for _, in := range [][]int{{1, 2, 5}, {1, 5, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("OutShape(%v) accepted a window wider than the input", in)
				}
			}()
			l.OutShape(in)
		}()
	}
}

func TestConvReceptive(t *testing.T) {
	s := rng.New(1)
	c := NewConv2D(1, 1, 3, 3, 2, 1, s)
	y0, y1, x0, x1 := c.Receptive(1, 2)
	if y0 != 1 || y1 != 3 || x0 != 3 || x1 != 5 {
		t.Fatalf("Receptive = (%d,%d,%d,%d)", y0, y1, x0, x1)
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := NewMaxPool2D(2, 2)
	in := tensor.FromSlice([]float64{
		1, 5, 2, 0,
		3, 4, 1, 1,
		0, 0, 9, 2,
		0, 0, 3, 8,
	}, 1, 4, 4)
	out := unblock1(p.forwardBatch(block1(in)))
	want := tensor.FromSlice([]float64{5, 2, 0, 9}, 1, 2, 2)
	if !tensor.Equal(out, want, 0) {
		t.Fatalf("pool forward = %v", out)
	}
	grad := tensor.FromSlice([]float64{1, 1, 1, 1}, 1, 2, 2)
	gin := unblock1(p.backwardBatch(block1(grad), true))
	// Gradient must land exactly on the argmax positions.
	if gin.At(0, 0, 1) != 1 || gin.At(0, 2, 2) != 1 {
		t.Fatalf("pool backward = %v", gin)
	}
	if sumOf(gin) != 4 {
		t.Fatalf("pool backward total = %v", sumOf(gin))
	}
}

// TestPoolTieBreaksToFirst pins max-pool routing to the reference bit for
// bit: pooled values and input gradients of the plain pool, of the pool with
// the preceding ReLU fused in (over the raw block, and over an already
// ReLU'd one), and, for non-overlapping windows, the sparse winner list the
// first conv consumes. The rows draw every window from few values, so ties
// are common, and cover ±0 and NaN of both signs, whose payloads also carry
// the low mantissa bits a fold may OR in.
func TestPoolTieBreaksToFirst(t *testing.T) {
	posNaN := math.Float64frombits(0x7ff8000000000001)
	negNaN := math.Float64frombits(0xfff8000000000002)
	odd := math.Float64frombits(0x3ff0000000000003) // 1 + 3ulp
	kinds := []struct {
		name   string
		values []float64
	}{
		{"ties", []float64{-1, 0.5, 2, 2, odd}},
		{"signed zeros", []float64{math.Copysign(0, -1), 0, -1}},
		{"positive NaN", []float64{-1, odd, 2, posNaN}},
		{"negative NaN", []float64{-1, -2, odd, negNaN}},
		{"both NaNs", []float64{-1, odd, posNaN, negNaN, math.Copysign(0, -1)}},
	}
	grads := []float64{-1.5, 0, 0.25, 3}
	for _, size := range []int{2, 3, 4} {
		for _, stride := range []int{size, size - 1} {
			for ki, kind := range kinds {
				name := fmt.Sprintf("size%d/stride%d/%s", size, stride, kind.name)
				t.Run(name, func(t *testing.T) {
					s := rng.New(uint64(100*size + 10*stride + ki))
					h := size + 2*stride + 1
					samples := make([]*tensor.Tensor, 2)
					for b := range samples {
						samples[b] = tensor.New(2, h, h+1)
						for i := range samples[b].Data() {
							samples[b].Data()[i] = kind.values[s.Intn(len(kind.values))]
						}
					}
					p := NewMaxPool2D(size, stride)
					out := p.OutShape(samples[0].Shape())
					gs := make([]*tensor.Tensor, len(samples))
					for b := range gs {
						gs[b] = tensor.New(out...)
						for i := range gs[b].Data() {
							gs[b].Data()[i] = grads[s.Intn(len(grads))]
						}
					}
					checkPoolRouting(t, size, stride, samples, gs)
				})
			}
		}
	}
	// The windows of the fused ReLU+MaxPool bug: Inf−Inf, on amd64 a NaN
	// with its sign bit set, which the ReLU zeroes, and a NaN whose window
	// the ReLU backward must not route.
	inf := math.Inf(1)
	for _, window := range [][]float64{{inf - inf, 5, -1, -1}, {-1, posNaN, -1, -1}} {
		t.Run(fmt.Sprintf("window%v", window), func(t *testing.T) {
			in := tensor.FromSlice(window, 1, 2, 2)
			checkPoolRouting(t, 2, 2, []*tensor.Tensor{in}, []*tensor.Tensor{tensor.FromSlice([]float64{1}, 1, 1, 1)})
		})
	}
}

// checkPoolRouting runs samples as one packed block through every max-pool
// path and compares each with the reference loops bit for bit.
func checkPoolRouting(t *testing.T, size, stride int, samples, grads []*tensor.Tensor) {
	t.Helper()
	ref := NewMaxPool2D(size, stride)
	relu := NewReLU()
	blk, gblk := packSamples(samples), packSamples(grads)
	reluBlk := relu.forwardBatch(blk)

	plain := NewMaxPool2D(size, stride)
	plainOut := plain.forwardBatch(blk)
	plainIn := plain.backwardBatch(gblk, true)
	fused := NewMaxPool2D(size, stride)
	fusedOut := fused.forwardBatchReLU(blk)
	fusedIn := fused.scatter(gblk, true)
	unfused := NewMaxPool2D(size, stride)
	unfusedOut := unfused.forwardBatch(reluBlk)
	unfusedIn := unfused.scatter(gblk, true)
	var sparseIn *tensor.Tensor
	if stride >= size {
		sparse := NewMaxPool2D(size, stride)
		sparse.forwardBatchReLU(blk)
		sparseIn = densifyWinners(t, sparse.backwardBatchSparse(gblk), blk.Shape())
	}

	for b, in := range samples {
		out := refMaxPoolForward(ref, in)
		requireSameBits(t, "plain pooled", unpackSample(plainOut, b), out)
		requireSameBits(t, "plain gradient", unpackSample(plainIn, b), refMaxPoolBackward(ref, in, out, grads[b]))

		r := refReLUForward(in)
		rOut := refMaxPoolForward(ref, r)
		want := refReLUBackward(r, refMaxPoolBackward(ref, r, rOut, grads[b]))
		requireSameBits(t, "fused pooled", unpackSample(fusedOut, b), rOut)
		requireSameBits(t, "fused gradient", unpackSample(fusedIn, b), want)
		requireSameBits(t, "ReLU'd pooled", unpackSample(unfusedOut, b), rOut)
		requireSameBits(t, "ReLU'd gradient", unpackSample(unfusedIn, b), want)
		if sparseIn != nil {
			requireSameBits(t, "sparse gradient", unpackSample(sparseIn, b), want)
		}
	}
}

// packSamples packs (C,H,W) samples into one (C,B,H,W) block.
func packSamples(samples []*tensor.Tensor) *tensor.Tensor {
	ch, h, w := samples[0].Dim(0), samples[0].Dim(1), samples[0].Dim(2)
	blk := tensor.New(ch, len(samples), h, w)
	for b, s := range samples {
		for c := 0; c < ch; c++ {
			copy(blk.Data()[(c*len(samples)+b)*h*w:], s.Data()[c*h*w:(c+1)*h*w])
		}
	}
	return blk
}

// unpackSample copies sample b out of a (C,B,H,W) block.
func unpackSample(blk *tensor.Tensor, b int) *tensor.Tensor {
	ch, bsz, h, w := blk.Dim(0), blk.Dim(1), blk.Dim(2), blk.Dim(3)
	s := tensor.New(ch, h, w)
	for c := 0; c < ch; c++ {
		copy(s.Data()[c*h*w:(c+1)*h*w], blk.Data()[(c*bsz+b)*h*w:])
	}
	return s
}

// densifyWinners spreads a sparse winner list over a zero block of shape,
// failing unless the list is strictly ascending in (oc, b, y, x): the dense
// scatter's order, with no cell twice.
func densifyWinners(t *testing.T, winners []sparseWinner, shape []int) *tensor.Tensor {
	t.Helper()
	blk := tensor.New(shape...)
	bsz, h, w := shape[1], shape[2], shape[3]
	prev := -1
	for _, sw := range winners {
		k := ((int(sw.oc)*bsz+int(sw.b))*h+int(sw.y))*w + int(sw.x)
		if k <= prev {
			t.Fatalf("winner %+v out of order", sw)
		}
		blk.Data()[k], prev = sw.g, k
	}
	return blk
}

// requireSameBits fails unless got and want hold the same float64 bits.
func requireSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d is %v (%#x), reference %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

func TestReLU(t *testing.T) {
	r := NewReLU()
	in := tensor.FromSlice([]float64{-1, 0, 2}, 3)
	out := unblock1(r.forwardBatch(block1(in)))
	if out.At(0) != 0 || out.At(1) != 0 || out.At(2) != 2 {
		t.Fatalf("relu = %v", out)
	}
	gin := unblock1(r.backwardBatch(block1(tensor.FromSlice([]float64{5, 5, 5}, 3)), true))
	if gin.At(0) != 0 || gin.At(2) != 5 {
		t.Fatalf("relu backward = %v", gin)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	in := randomInput(rng.New(1), 2, 3, 4)
	out := unblock1(f.forwardBatch(block1(in)))
	if out.Dims() != 1 || out.Dim(0) != 24 {
		t.Fatalf("flatten shape = %v", out.Shape())
	}
	back := unblock1(f.backwardBatch(block1(out), true))
	if !tensor.Equal(back, in, 0) {
		t.Fatal("flatten backward not inverse")
	}
}

func TestDeterministicInitialization(t *testing.T) {
	a := buildTinyNet(42)
	b := buildTinyNet(42)
	in := randomInput(rng.New(0), 1, 6, 6)
	if !tensor.Equal(a.Forward(in), b.Forward(in), 0) {
		t.Fatal("same seed produced different networks")
	}
	c := buildTinyNet(43)
	if tensor.Equal(a.Forward(in), c.Forward(in), 1e-9) {
		t.Fatal("different seeds produced identical networks")
	}
}

// TestLearnsToyProblem verifies the full train loop can fit a simple
// linearly-separable spatial task: is the bright blob on the left or the
// right half of the image?
func TestLearnsToyProblem(t *testing.T) {
	s := rng.New(2026)
	var samples []Sample
	for i := 0; i < 200; i++ {
		in := tensor.New(1, 6, 6)
		label := i % 2
		x := s.Intn(3)
		if label == 1 {
			x += 3
		}
		y := s.Intn(6)
		in.Set(1, 0, y, x)
		// Mild noise.
		for j := 0; j < 3; j++ {
			in.Set(in.At(0, s.Intn(6), s.Intn(6))+0.1*s.Norm(), 0, s.Intn(6), s.Intn(6))
		}
		samples = append(samples, Sample{Input: in, Label: label})
	}
	net := NewNetwork([]int{1, 6, 6},
		NewConv2D(1, 4, 3, 3, 1, 1, s.Split("c")),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewDense(36, 2, s.Split("d")),
	)
	opt := NewSGD(0.05, 0.9)
	net.FitParallel(samples, 15, 8, 1, opt, s.Split("train"))
	acc := net.Evaluate(samples)
	if acc < 0.95 {
		t.Fatalf("toy accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestTrainLossDecreases(t *testing.T) {
	s := rng.New(77)
	var samples []Sample
	for i := 0; i < 60; i++ {
		in := randomInput(s, 1, 6, 6)
		label := 0
		if sumOf(in) > 0 {
			label = 1
		}
		samples = append(samples, Sample{Input: in, Label: label})
	}
	net := buildTinyNet(5)
	opt := NewSGD(0.02, 0.9)
	first := net.FitParallel(samples, 1, 4, 1, opt, s)
	last := net.FitParallel(samples, 20, 4, 1, opt, s)
	if last >= first {
		t.Fatalf("loss did not decrease: first %.4f last %.4f", first, last)
	}
}

func TestReplicaTableMatchesSharedWhenIdentical(t *testing.T) {
	// A replica table whose every position holds the shared kernel must not
	// change the forward output.
	s := rng.New(31)
	c := NewConv2D(1, 3, 3, 3, 1, 1, s)
	in := randomInput(s, 1, 5, 5)
	// Clone: layer outputs are reusable scratch, and the second forward
	// below would otherwise overwrite (and alias) the first result.
	want := c.forwardBatch(block1(in)).Clone()
	kernels := make([]*tensor.Tensor, 5*5)
	grads := make([]*tensor.Tensor, 5*5)
	for p := range kernels {
		kernels[p], grads[p] = c.Weight(), c.Grads()[0]
	}
	c.SetReplicaTable(kernels, grads, 5)
	got := c.forwardBatch(block1(in))
	if !tensor.Equal(want, got, 0) {
		t.Fatal("identity replica table changed output")
	}
}
