package cnn

import (
	"math"
	"slices"
	"strings"
	"testing"

	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// trainedQuantPair returns a lightly trained float network, a quantized
// copy calibrated on its training inputs, and the training samples.
func trainedQuantPair(t *testing.T) (*Network, *QuantizedNetwork, []Sample) {
	t.Helper()
	net := buildTinyNet(31)
	samples := spatialSamples(301, 60, 1, 6, 6, 3)
	net.FitParallel(samples, 6, 8, 1, NewSGD(0.05, 0.9), rng.New(17).Split("fit"))
	qn, err := QuantizeNetwork(net, samples)
	if err != nil {
		t.Fatal(err)
	}
	return net, qn, samples
}

func TestQuantRequantizeRounding(t *testing.T) {
	// mult = 2^24 is the identity multiplier.
	id := int64(1) << qShift
	cases := []struct {
		acc  int32
		want int8
	}{
		{0, 0}, {1, 1}, {-1, -1}, {126, 126},
		{127, 127}, {128, 127}, {1 << 20, 127}, // saturation
		{-127, -127}, {-128, -127}, {-(1 << 20), -127},
	}
	for _, c := range cases {
		if got := requantize(c.acc, id); got != c.want {
			t.Fatalf("requantize(%d, id) = %d, want %d", c.acc, got, c.want)
		}
	}
	// Half multiplier: round-half-up at the .5 boundary.
	half := id / 2
	if got := requantize(1, half); got != 1 { // 0.5 rounds up
		t.Fatalf("requantize(1, half) = %d, want 1", got)
	}
	if got := requantize(-1, half); got != 0 { // -0.5 rounds up to 0
		t.Fatalf("requantize(-1, half) = %d, want 0", got)
	}
	if got := requantize(3, half); got != 2 { // 1.5 rounds up
		t.Fatalf("requantize(3, half) = %d, want 2", got)
	}
}

func TestQuantRoundTripErrorBound(t *testing.T) {
	// quantize→dequantize of any value inside the calibrated range must land
	// within scale/2 of the original.
	s := rng.New(41)
	for trial := 0; trial < 200; trial++ {
		maxabs := math.Abs(s.NormMeanStd(0, 10)) + 1e-3
		scale := qscale(maxabs)
		v := s.Float64()*2*maxabs - maxabs
		q := clampRound8(v / scale)
		back := float64(q) * scale
		if math.Abs(back-v) > scale/2+1e-12 {
			t.Fatalf("round trip |%g - %g| = %g > scale/2 = %g", v, back, math.Abs(back-v), scale/2)
		}
	}
}

func TestQuantizeNetworkValidates(t *testing.T) {
	net := buildTinyNet(1)
	if _, err := QuantizeNetwork(net, nil); err == nil {
		t.Fatal("empty calibration set accepted")
	}
	// Network not ending in Dense.
	s := rng.New(2)
	relu := NewNetwork([]int{4}, NewDense(4, 3, s.Split("d")), NewReLU())
	calib := flatSamples(1, 4, 4, 3)
	if _, err := QuantizeNetwork(relu, calib); err == nil {
		t.Fatal("relu-terminated network accepted")
	}
	// Replica-hooked conv.
	s2 := rng.New(3)
	conv := NewConv2D(1, 2, 3, 3, 1, 1, s2.Split("c"))
	kernels := make([]*tensor.Tensor, 36)
	grads := make([]*tensor.Tensor, 36)
	for i := range kernels {
		kernels[i], grads[i] = conv.Params()[0], conv.Grads()[0]
	}
	conv.SetReplicaTable(kernels, grads, 6)
	rep := NewNetwork([]int{1, 6, 6}, conv, NewFlatten(), NewDense(2*6*6, 3, s2.Split("d")))
	if _, err := QuantizeNetwork(rep, spatialSamples(5, 3, 1, 6, 6, 3)); err == nil {
		t.Fatal("replica-hooked conv accepted")
	}
}

// TestQuantAgreesWithFloat is the deterministic version of the ISSUE's
// property: on random inputs drawn from the calibration distribution, the
// int8 network must classify like the float network on at least 95% of
// inputs.
func TestQuantAgreesWithFloat(t *testing.T) {
	net, qn, _ := trainedQuantPair(t)
	s := rng.New(73)
	agree, n := 0, 400
	for i := 0; i < n; i++ {
		in := randomInput(s, 1, 6, 6)
		if qn.Classify(in) == net.Forward(in).Argmax() {
			agree++
		}
	}
	if frac := float64(agree) / float64(n); frac < 0.95 {
		t.Fatalf("quantized agreement %.3f < 0.95 (%d/%d)", frac, agree, n)
	}
}

func TestQuantAccuracyClose(t *testing.T) {
	net, qn, samples := trainedQuantPair(t)
	floatAcc := net.Evaluate(samples)
	correct := 0
	for _, smp := range samples {
		if qn.Classify(smp.Input) == smp.Label {
			correct++
		}
	}
	quantAcc := float64(correct) / float64(len(samples))
	if math.Abs(quantAcc-floatAcc) > 0.05 {
		t.Fatalf("quantized accuracy %.3f vs float %.3f: drift > 5 points", quantAcc, floatAcc)
	}
}

// TestQuantForwardMatchesClassify checks that Classify is the first-index
// argmax of the integer logits the forward pass leaves.
func TestQuantForwardMatchesClassify(t *testing.T) {
	_, qn, samples := trainedQuantPair(t)
	for _, smp := range samples[:20] {
		ld := slices.Clone(qn.forwardInt(smp.Input))
		best := 0
		for i, v := range ld {
			if v > ld[best] {
				best = i
			}
		}
		if got := qn.Classify(smp.Input); got != best {
			t.Fatalf("Classify %d != integer-logit argmax %d (logits %v)", got, best, ld)
		}
	}
}

func TestQuantAvgPoolNetwork(t *testing.T) {
	// Exercise the AvgPool2D rounded mean end to end.
	net := buildFullNet(7)
	samples := spatialSamples(311, 40, 1, 8, 8, 2)
	net.FitParallel(samples, 4, 8, 1, NewSGD(0.05, 0.9), rng.New(23).Split("fit"))
	qn, err := QuantizeNetwork(net, samples)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for _, smp := range samples {
		if qn.Classify(smp.Input) == net.Forward(smp.Input).Argmax() {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(samples)); frac < 0.9 {
		t.Fatalf("avgpool-net quantized agreement %.3f < 0.9", frac)
	}
}

func TestQuantDeterministic(t *testing.T) {
	net, _, samples := trainedQuantPair(t)
	qa, err := QuantizeNetwork(net, samples)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := QuantizeNetwork(net, samples)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(99)
	for i := 0; i < 50; i++ {
		in := randomInput(s, 1, 6, 6)
		if qa.Classify(in) != qb.Classify(in) {
			t.Fatal("two quantizations of the same network diverge")
		}
		if !slices.Equal(qa.forwardInt(in), qb.forwardInt(in)) {
			t.Fatal("quantized integer logits not bit-deterministic")
		}
	}
}

type namedNet struct {
	name string
	net  *Network
}

// quantOracleNets returns the stacks the int8 oracle test covers: e2's lounge CNN (a single-channel 3×3 conv into a
// 3×3 max pool), e1's 10-channel gait CNN, e13's dense-only net, a
// stride-2/pad-0 conv feeding two stacked Dense layers (an interior Dense
// with no ReLU after it), and a conv whose signed outputs feed a 2×2
// average pool and then a Dense, so half-way means of both signs reach the
// logits. Biases are random so the accumulator seeds are exercised.
func quantOracleNets() []namedNet {
	s := rng.New(5)
	nets := []namedNet{
		{"lounge", NewNetwork([]int{1, 17, 25},
			NewConv2D(1, 4, 3, 3, 1, 1, s.Split("l.c")), NewReLU(), NewMaxPool2D(3, 3),
			NewFlatten(), NewDense(4*5*8, 16, s.Split("l.d1")), NewReLU(), NewDense(16, 2, s.Split("l.d2")))},
		{"gait", NewNetwork([]int{10, 8, 8},
			NewConv2D(10, 8, 3, 3, 1, 1, s.Split("g.c")), NewReLU(), NewMaxPool2D(2, 2),
			NewFlatten(), NewDense(8*4*4, 32, s.Split("g.d1")), NewReLU(), NewDense(32, 2, s.Split("g.d2")))},
		{"har", NewNetwork([]int{4},
			NewDense(4, 24, s.Split("h.d1")), NewReLU(), NewDense(24, 5, s.Split("h.d2")))},
		{"stride2", NewNetwork([]int{2, 9, 9},
			NewConv2D(2, 3, 3, 3, 2, 0, s.Split("s.c")), NewReLU(), NewFlatten(),
			NewDense(3*4*4, 6, s.Split("s.d1")), NewDense(6, 3, s.Split("s.d2")))},
		{"avgpool", NewNetwork([]int{1, 8, 8},
			NewConv2D(1, 3, 3, 3, 1, 1, s.Split("a.c")), NewAvgPool2D(2, 2),
			NewFlatten(), NewDense(3*4*4, 8, s.Split("a.d1")), NewReLU(), NewDense(8, 2, s.Split("a.d2")))},
	}
	for _, n := range nets {
		bs := s.Split(n.name + ".bias")
		for _, l := range n.net.layers {
			if pl, ok := l.(ParamLayer); ok {
				for i, b := range pl.Params()[1].Data() {
					pl.Params()[1].Data()[i] = b + bs.NormMeanStd(0, 0.3)
				}
			}
		}
	}
	return nets
}

// TestQuantMatchesIntegerOracle pins QuantizedNetwork — the packed float
// kernels on quantized integers — to the plain int8 loops of
// quant_ref_test.go at tolerance 0: Forward's dequantized logits and
// Classify's class, on 1,000 inputs per stack, every fifth scaled ×40 past
// the calibrated range so requantization saturates.
func TestQuantMatchesIntegerOracle(t *testing.T) {
	for _, n := range quantOracleNets() {
		net := n.net
		t.Run(n.name, func(t *testing.T) {
			in := net.InShape()
			s := rng.New(77)
			calib := make([]Sample, 48)
			for i := range calib {
				calib[i] = Sample{Input: randomInput(s, in...)}
			}
			qn, err := QuantizeNetwork(net, calib)
			if err != nil {
				t.Fatal(err)
			}
			oracle := refQuantize(net, calib)
			for i := 0; i < 1000; i++ {
				x := randomInput(s, in...)
				if i%5 == 0 {
					x.ScaleInPlace(40)
				}
				logits := oracle.logits(x)
				want := make([]float64, len(logits))
				best := 0
				for j, v := range logits {
					want[j] = float64(v)
					if v > logits[best] {
						best = j
					}
				}
				if got := qn.forwardInt(x); !slices.Equal(got, want) {
					t.Fatalf("input %d: integer logits %v, oracle %v", i, got, want)
				}
				if got := qn.Classify(x); got != best {
					t.Fatalf("input %d: Classify %d, oracle %d (int32 %v)", i, got, best, logits)
				}
			}
			for _, l := range oracle.layers {
				if p, ok := l.(*refQPool); ok && p.avg && min(p.halfway[0], p.halfway[1]) == 0 {
					t.Fatalf("average-pool half-way means (negative, positive) = %v, want both", p.halfway)
				}
			}
		})
	}
}

// TestQuantizeNetworkRejectsOverflow checks the integer range guard: a
// layer whose int32 accumulator could wrap, or whose requantization
// multiplier exceeds 2³², is an error naming the layer, and a layer just
// inside the accumulator bound is accepted.
func TestQuantizeNetworkRejectsOverflow(t *testing.T) {
	s := rng.New(9)
	constant := func(v float64, shape ...int) []Sample {
		in := tensor.New(shape...)
		for i := range in.Data() {
			in.Data()[i] = v
		}
		return []Sample{{Input: in}}
	}
	// A bias of 1e6 on inputs near 1e-9 is far outside int32 at the
	// accumulator scale.
	hugeBias := NewDense(4, 2, s.Split("b"))
	hugeBias.bias.Data()[1] = 1e6
	// 133,145·127² alone reaches 2³¹; 133,144·127² with zero bias does not.
	wide := NewDense(133145, 2, s.Split("w"))
	widest := NewDense(133144, 2, s.Split("w2"))
	// Weights that cancel on the calibration inputs leave the first layer's
	// outputs at 0, so its output scale is 1 while inScale·ws is ~620.
	cancel := NewDense(2, 2, s.Split("c"))
	copy(cancel.weight.Data(), []float64{1, -1, 1, -1})
	cases := []struct {
		name  string
		net   *Network
		calib []Sample
		want  string // substring of the error; empty means accepted
	}{
		{"bias", NewNetwork([]int{4}, hugeBias), constant(1e-9, 4), "layer 0 (dense(4->2))"},
		{"fanin", NewNetwork([]int{133145}, wide), constant(1, 133145), "layer 0 (dense(133145->2))"},
		{"fanin_edge", NewNetwork([]int{133144}, widest), constant(1, 133144), ""},
		{"mult", NewNetwork([]int{2}, cancel, NewReLU(), NewDense(2, 2, s.Split("d"))), constant(1e7, 2),
			"layer 0 (dense(2->2)): requantize multiplier"},
	}
	for _, c := range cases {
		_, err := QuantizeNetwork(c.net, c.calib)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}
