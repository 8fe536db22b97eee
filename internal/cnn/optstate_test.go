package cnn

import (
	"testing"

	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// TestSGDReleaseNetwork checks that optimizer state for a retired network can
// be pruned: experiments like e2 train several throwaway networks with one
// optimizer lifetime each, and without Release/Reset the velocity map keeps
// every dead network's parameters alive.
func TestSGDReleaseNetwork(t *testing.T) {
	opt := NewSGD(0.01, 0.9)
	net, in := allocNetAnyBuild(1)
	samples := []Sample{{Input: in, Label: 1}}
	net.FitParallel(samples, 1, 1, 1, opt, rng.New(1))
	if opt.StateSize() == 0 {
		t.Fatal("momentum SGD retained no velocity state after a step")
	}
	opt.ReleaseNetwork(net)
	if got := opt.StateSize(); got != 0 {
		t.Errorf("StateSize() = %d after ReleaseNetwork, want 0", got)
	}

	net2, _ := allocNetAnyBuild(2)
	net2.FitParallel(samples, 1, 1, 1, opt, rng.New(1))
	if opt.StateSize() == 0 {
		t.Fatal("optimizer unusable after ReleaseNetwork")
	}
	opt.Reset()
	if got := opt.StateSize(); got != 0 {
		t.Errorf("StateSize() = %d after Reset, want 0", got)
	}
}

// TestSGDResetRestartsMomentum checks Reset gives the same trajectory as a
// brand-new optimizer (i.e. it really clears the velocity, not just the map).
func TestSGDResetRestartsMomentum(t *testing.T) {
	samples := []Sample{}
	s := rng.New(3)
	for i := 0; i < 8; i++ {
		in := tensor.New(1, 17, 25)
		d := in.Data()
		for j := range d {
			d[j] = s.NormMeanStd(0, 1)
		}
		samples = append(samples, Sample{Input: in, Label: i % 2})
	}

	reused := NewSGD(0.01, 0.9)
	warm, _ := allocNetAnyBuild(4)
	warm.FitParallel(samples, 1, 4, 1, reused, rng.New(6)) // build up velocity
	reused.Reset()
	a, _ := allocNetAnyBuild(5)
	a.FitParallel(samples, 1, 4, 1, reused, rng.New(6))

	b, _ := allocNetAnyBuild(5)
	b.FitParallel(samples, 1, 4, 1, NewSGD(0.01, 0.9), rng.New(6))

	la, lb := a.Layers(), b.Layers()
	for i := range la {
		pa, ok := la[i].(ParamLayer)
		if !ok {
			continue
		}
		pb := lb[i].(ParamLayer)
		for j, ta := range pa.Params() {
			if !tensor.Equal(ta, pb.Params()[j], 0) {
				t.Errorf("layer %d param %d: reset optimizer diverges from fresh optimizer", i, j)
			}
		}
	}
}

func TestAdamResetAndRelease(t *testing.T) {
	opt := NewAdam(0.001)
	net, in := allocNetAnyBuild(6)
	_, grad := CrossEntropy(net.Forward(in), 0)
	net.Backward(grad)
	opt.StepNetwork(net, 1)
	if opt.StateSize() == 0 {
		t.Fatal("Adam retained no moment state after a step")
	}
	for _, l := range net.Layers() {
		if pl, ok := l.(ParamLayer); ok {
			opt.Release(pl.Params()...)
		}
	}
	if got := opt.StateSize(); got != 0 {
		t.Errorf("StateSize() = %d after releasing all params, want 0", got)
	}
	opt.Reset()
	if got := opt.StateSize(); got != 0 {
		t.Errorf("StateSize() = %d after Reset, want 0", got)
	}
}

// allocNetAnyBuild mirrors alloc_test's allocNet without the !race build tag
// so the optimizer-state tests also run under the race detector.
func allocNetAnyBuild(seed uint64) (*Network, *tensor.Tensor) {
	s := rng.New(seed)
	net := NewNetwork([]int{1, 17, 25},
		NewConv2D(1, 4, 3, 3, 1, 1, s.Split("c")),
		NewReLU(),
		NewMaxPool2D(3, 3),
		NewFlatten(),
		NewDense(4*5*8, 16, s.Split("d1")),
		NewReLU(),
		NewDense(16, 2, s.Split("d2")),
	)
	in := tensor.New(1, 17, 25)
	d := in.Data()
	for i := range d {
		d[i] = s.NormMeanStd(0, 1)
	}
	return net, in
}
