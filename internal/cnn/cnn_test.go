package cnn

import (
	"math"
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

func TestSoftmaxProperties(t *testing.T) {
	s := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		logits := randomInput(s, 10)
		logits.ScaleInPlace(20) // stress stability
		p := Softmax(logits)
		sum := p.Sum()
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("softmax sums to %v", sum)
		}
		for _, v := range p.Data() {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("softmax produced %v", v)
			}
		}
		if p.Argmax() != logits.Argmax() {
			t.Fatal("softmax changed argmax")
		}
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	logits := tensor.FromSlice([]float64{1, 2, 3}, 3)
	shifted := tensor.FromSlice([]float64{101, 102, 103}, 3)
	if !tensor.Equal(Softmax(logits), Softmax(shifted), 1e-12) {
		t.Fatal("softmax not shift invariant")
	}
}

func TestCrossEntropyGradientSumsToZero(t *testing.T) {
	s := rng.New(5)
	logits := randomInput(s, 6)
	_, grad := CrossEntropy(logits, 2)
	if math.Abs(grad.Sum()) > 1e-9 {
		t.Fatalf("CE gradient sums to %v, want 0", grad.Sum())
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
	if gin.Sum() != 4 {
		t.Fatalf("pool backward total = %v", gin.Sum())
	}
}

func TestPoolTieBreaksToFirst(t *testing.T) {
	p := NewMaxPool2D(2, 2)
	in := tensor.FromSlice([]float64{7, 7, 7, 7}, 1, 2, 2)
	p.forwardBatch(block1(in))
	gin := unblock1(p.backwardBatch(block1(tensor.FromSlice([]float64{1}, 1, 1, 1)), true))
	if gin.At(0, 0, 0) != 1 {
		t.Fatalf("tie did not route to first element: %v", gin)
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
		if in.Sum() > 0 {
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

func TestSGDWeightDecayShrinksParams(t *testing.T) {
	s := rng.New(9)
	d := NewDense(4, 4, s)
	opt := NewSGD(0.1, 0)
	opt.Decay = 0.5
	before := d.Weight().L2()
	d.ZeroGrads()
	opt.Step(d.Params(), d.Grads(), 1)
	after := d.Weight().L2()
	if after >= before {
		t.Fatalf("decay did not shrink weights: %v -> %v", before, after)
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
