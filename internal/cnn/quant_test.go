package cnn

import (
	"math"
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
		if qn.Classify(in) == net.Predict(in) {
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

func TestQuantForwardMatchesClassify(t *testing.T) {
	_, qn, samples := trainedQuantPair(t)
	for _, smp := range samples[:20] {
		logits := qn.Forward(smp.Input)
		best := 0
		ld := logits.Data()
		for i, v := range ld {
			if v > ld[best] {
				best = i
			}
		}
		if got := qn.Classify(smp.Input); got != best {
			t.Fatalf("Classify %d != Forward argmax %d", got, best)
		}
	}
}

func TestQuantAvgPoolNetwork(t *testing.T) {
	// Exercise qAvgPool (and its rounded mean) end to end.
	net := buildFullNet(7)
	samples := spatialSamples(311, 40, 1, 8, 8, 2)
	net.FitParallel(samples, 4, 8, 1, NewSGD(0.05, 0.9), rng.New(23).Split("fit"))
	qn, err := QuantizeNetwork(net, samples)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for _, smp := range samples {
		if qn.Classify(smp.Input) == net.Predict(smp.Input) {
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
		if !tensor.Equal(qa.Forward(in), qb.Forward(in), 0) {
			t.Fatal("quantized Forward not bit-deterministic")
		}
	}
}

// TestQuantFusedMatchesReference pins the optimized integer pipeline (fused
// conv block, SWAR dense) to the plain layered lowering bit for bit: both
// compute the same integers by construction, on inputs far outside the
// calibrated range included.
func TestQuantFusedMatchesReference(t *testing.T) {
	for _, seed := range []uint64{31, 77} {
		net := buildTinyNet(seed)
		samples := spatialSamples(301+seed, 60, 1, 6, 6, 3)
		net.FitParallel(samples, 4, 8, 1, NewSGD(0.05, 0.9), rng.New(17).Split("fit"))
		fused, err := QuantizeNetwork(net, samples)
		if err != nil {
			t.Fatal(err)
		}
		quantDisableFusion = true
		plain, err := QuantizeNetwork(net, samples)
		quantDisableFusion = false
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range fused.layers {
			if _, ok := l.(*qConvReLUPool); ok {
				goto hasFused
			}
		}
		t.Fatal("fused quantization did not build a qConvReLUPool block")
	hasFused:
		s := rng.New(1000 + seed)
		for i := 0; i < 200; i++ {
			in := randomInput(s, 1, 6, 6)
			if i%5 == 0 { // push activations outside the calibrated range
				d := in.Data()
				for j := range d {
					d[j] *= 40
				}
			}
			if !tensor.Equal(fused.Forward(in), plain.Forward(in), 0) {
				t.Fatalf("seed %d input %d: fused forward diverges from layered reference", seed, i)
			}
			if fused.Classify(in) != plain.Classify(in) {
				t.Fatalf("seed %d input %d: fused classify diverges", seed, i)
			}
		}
	}
}
