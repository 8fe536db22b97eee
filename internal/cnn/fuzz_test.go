package cnn

import (
	"bytes"
	"math"
	"testing"

	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// FuzzLoad feeds arbitrary bytes to the two decoders the program reads
// checkpoints through, decodeBlob (behind RestoreTraining) and
// ResumeTrainer: they must never panic, only return errors for garbage, and
// every trainer ResumeTrainer accepts must take a training step.
func FuzzLoad(f *testing.F) {
	// Seed with a valid blob and some mutations of it.
	net := buildTinyNet(1)
	var buf bytes.Buffer
	if err := net.SaveTraining(&buf, nil); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not a gob at all"))
	if len(valid) > 10 {
		truncated := append([]byte(nil), valid[:len(valid)/2]...)
		f.Add(truncated)
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)/3] ^= 0xff
		f.Add(flipped)
	}
	// A training blob (optimizer state + stream positions) and a mutation of
	// it: the training-state decode paths must be panic-free too.
	opt := NewSGD(0.05, 0.9)
	samples := fuzzQuantSamples()[:8]
	net.FitParallel(samples[:6], 1, 2, 1, opt, rng.New(5).Split("fit"))
	var tbuf bytes.Buffer
	if err := net.SaveTraining(&tbuf, opt, rng.New(5)); err != nil {
		f.Fatal(err)
	}
	training := tbuf.Bytes()
	f.Add(training)
	if len(training) > 10 {
		mangled := append([]byte(nil), training...)
		mangled[2*len(mangled)/3] ^= 0xff
		f.Add(mangled)
	}
	// A trainer checkpoint and a mutation of it.
	tr := NewTrainer(net, opt, rng.New(7).Split("fit"), samples, 2, 4, 1)
	tr.Step(1)
	var cbuf bytes.Buffer
	if err := tr.Save(&cbuf); err != nil {
		f.Fatal(err)
	}
	ck := cbuf.Bytes()
	f.Add(ck)
	mangledCK := append([]byte(nil), ck...)
	mangledCK[len(mangledCK)/2] ^= 0xff
	f.Add(mangledCK)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Rejection is the expected path for garbage; a success must produce
		// a usable network.
		if n, _, err := decodeBlob(bytes.NewReader(data)); err == nil && (n == nil || len(n.InShape()) == 0) {
			t.Fatal("decodeBlob returned success with an unusable network")
		}
		if tr, err := ResumeTrainer(bytes.NewReader(data), samples, 1); err == nil {
			if tr == nil || len(tr.Net().InShape()) == 0 {
				t.Fatal("ResumeTrainer returned success with an unusable trainer")
			}
			tr.Step(1)
		}
	})
}

// FuzzQuantizedClassify drives a fixed trained quantized network with
// arbitrary inputs (including NaN/Inf-free extremes far outside the
// calibrated range): Classify must never panic, must stay in class range,
// and the input quantizer's round trip must stay within half a scale step
// for in-range values.
func FuzzQuantizedClassify(f *testing.F) {
	net := buildTinyNet(31)
	samples := fuzzQuantSamples()
	net.FitParallel(samples, 4, 8, 1, NewSGD(0.05, 0.9), rng.New(17).Split("fit"))
	qn, err := QuantizeNetwork(net, samples)
	if err != nil {
		f.Fatal(err)
	}
	nclass := net.OutShape()[0]
	f.Add(0.0, 1.0, -1.0, 0.5)
	f.Add(1e6, -1e6, 1e-9, -1e-9)
	f.Add(127.0, -127.0, 3.14, -2.71)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		in := tensor.New(1, 6, 6)
		id := in.Data()
		seed := []float64{a, b, c, d}
		for i := range id {
			id[i] = seed[i%4] * (1 + float64(i)/36)
		}
		cls := qn.Classify(in)
		if cls < 0 || cls >= nclass {
			t.Fatalf("Classify = %d, want [0,%d)", cls, nclass)
		}
		// Round-trip bound on the input quantizer for in-range values.
		scale := qn.inScale
		limit := 127 * scale
		for _, v := range id {
			if math.Abs(v) > limit {
				continue
			}
			q := clampRound8(v / scale)
			if diff := math.Abs(float64(q)*scale - v); diff > scale/2+1e-12 {
				t.Fatalf("round trip error %g > scale/2 = %g for %g", diff, scale/2, v)
			}
		}
	})
}

func fuzzQuantSamples() []Sample {
	s := rng.New(301)
	out := make([]Sample, 40)
	for i := range out {
		out[i] = Sample{Input: randomInput(s, 1, 6, 6), Label: i % 3}
	}
	return out
}
