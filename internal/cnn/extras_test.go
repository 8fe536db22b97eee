package cnn

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

func buildFullNet(seed uint64) *Network {
	s := rng.New(seed)
	return NewNetwork([]int{1, 8, 8},
		NewConv2D(1, 3, 3, 3, 1, 1, s.Split("c")),
		NewReLU(),
		NewAvgPool2D(2, 2),
		NewFlatten(),
		NewDense(3*4*4, 8, s.Split("d1")),
		NewReLU(),
		NewDense(8, 2, s.Split("d2")),
	)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	net := buildFullNet(1)
	s := rng.New(5)
	// Train a little so weights are not just init values.
	var samples []Sample
	for i := 0; i < 40; i++ {
		samples = append(samples, Sample{Input: randomInput(s, 1, 8, 8), Label: i % 2})
	}
	net.FitParallel(samples, 3, 8, 1, NewSGD(0.02, 0.9), s.Split("fit"))

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		in := randomInput(s, 1, 8, 8)
		if !tensor.Equal(net.Forward(in), loaded.Forward(in), 0) {
			t.Fatal("loaded network diverges from original")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input decoded")
	}
}

func TestAvgPoolForwardKnown(t *testing.T) {
	p := NewAvgPool2D(2, 2)
	in := tensor.FromSlice([]float64{
		1, 3, 5, 7,
		1, 3, 5, 7,
		2, 2, 8, 8,
		2, 2, 8, 8,
	}, 1, 4, 4)
	out := unblock1(p.forwardBatch(block1(in)))
	want := tensor.FromSlice([]float64{2, 6, 2, 8}, 1, 2, 2)
	if !tensor.Equal(out, want, 1e-12) {
		t.Fatalf("avg pool = %v", out)
	}
}

func TestAvgPoolOverlappingStride(t *testing.T) {
	// 3x3 input with 2x2 windows at stride 1: four overlapping windows.
	p := NewAvgPool2D(2, 1)
	in := tensor.FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	out := unblock1(p.forwardBatch(block1(in)))
	want := tensor.FromSlice([]float64{3, 4, 6, 7}, 1, 2, 2)
	if !tensor.Equal(out, want, 1e-12) {
		t.Fatalf("avg pool stride-1 = %v", out)
	}
	// Backward conserves total gradient mass.
	gin := p.backwardBatch(block1(tensor.FromSlice([]float64{1, 1, 1, 1}, 1, 2, 2)), true)
	if math.Abs(gin.Sum()-4) > 1e-12 {
		t.Fatalf("gradient mass = %v, want 4", gin.Sum())
	}
}

func TestAvgPoolGradientCheck(t *testing.T) {
	s := rng.New(3)
	net := NewNetwork([]int{1, 5, 5},
		NewAvgPool2D(2, 2),
		NewFlatten(),
		NewDense(4, 2, s.Split("d")),
	)
	in := randomInput(s, 1, 5, 5)
	net.ZeroGrads()
	g := inputGrad(net, in, 1)
	const h = 1e-5
	for i := 0; i < in.Size(); i += 3 {
		orig := in.Data()[i]
		in.Data()[i] = orig + h
		lp, _ := CrossEntropy(net.Forward(in), 1)
		in.Data()[i] = orig - h
		lm, _ := CrossEntropy(net.Forward(in), 1)
		in.Data()[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(want-g.Data()[i]) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("avg pool input grad %d: analytic %v numeric %v", i, g.Data()[i], want)
		}
	}
}

func TestAdamConvergesFasterThanPlainSGD(t *testing.T) {
	s := rng.New(7)
	var samples []Sample
	for i := 0; i < 150; i++ {
		in := tensor.New(1, 6, 6)
		label := i % 2
		x := s.Intn(3)
		if label == 1 {
			x += 3
		}
		in.Set(1, 0, s.Intn(6), x)
		samples = append(samples, Sample{Input: in, Label: label})
	}
	lossAfter := func(opt interface {
		StepNetwork(*Network, int)
	}) float64 {
		net := buildTinyNet(9)
		loss := 0.0
		stream := rng.New(11)
		for e := 0; e < 4; e++ {
			perm := stream.Perm(len(samples))
			total, count := 0.0, 0
			net.ZeroGrads()
			batch := 0
			for _, idx := range perm {
				sm := samples[idx]
				l, grad := CrossEntropy(net.Forward(sm.Input), sm.Label)
				total += l
				count++
				net.Backward(grad)
				batch++
				if batch == 10 {
					opt.StepNetwork(net, batch)
					net.ZeroGrads()
					batch = 0
				}
			}
			if batch > 0 {
				opt.StepNetwork(net, batch)
				net.ZeroGrads()
			}
			loss = total / float64(count)
		}
		return loss
	}
	sgdLoss := lossAfter(NewSGD(0.01, 0))
	adamLoss := lossAfter(NewAdam(0.01))
	if adamLoss >= sgdLoss {
		t.Fatalf("adam loss %.4f not below momentum-free SGD %.4f after 4 epochs", adamLoss, sgdLoss)
	}
}

func TestAdamStateIsPerParameter(t *testing.T) {
	s := rng.New(13)
	d1 := NewDense(3, 3, s)
	d2 := NewDense(3, 3, s)
	opt := NewAdam(0.1)
	d1.ZeroGrads()
	d2.ZeroGrads()
	d1.Grads()[0].Fill(1)
	before2 := d2.Weight().Clone()
	opt.Step(d1.Params(), d1.Grads(), 1)
	if tensor.Equal(d1.Weight(), before2, 0) {
		t.Fatal("step did not move d1")
	}
	if !tensor.Equal(d2.Weight(), before2, 0) {
		t.Fatal("stepping d1 moved d2")
	}
}
