package cnn

import (
	"fmt"
	"math"

	"zeiot/internal/obs"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// Network is an ordered stack of layers trained with softmax cross-entropy.
//
// A Network is not safe for concurrent use; the training engine manages its
// own internal worker goroutines over shadow layer stacks.
type Network struct {
	layers  []Layer
	inShape []int
	// slots is the training engine's cached per-block state (see
	// trainChunk): slot 0 runs on this network, the others on shadow
	// networks sharing its parameter and gradient tensors.
	slots []*trainSlot
	// rec, when non-nil, receives per-epoch training curves from the
	// training engine (see SetRecorder). Shadow networks never carry it.
	rec       obs.Recorder
	recPrefix string
	recEval   []Sample
}

// NewNetwork returns a network accepting inputs of the given shape.
func NewNetwork(inShape []int, layers ...Layer) *Network {
	n := &Network{layers: layers, inShape: append([]int(nil), inShape...)}
	// Validate the stack once up front so geometry errors surface at
	// construction, not mid-training.
	shape := n.inShape
	for _, l := range layers {
		shape = l.OutShape(shape)
	}
	return n
}

// Layers returns the layer stack.
func (n *Network) Layers() []Layer { return n.layers }

// InShape returns the input shape.
func (n *Network) InShape() []int { return n.inShape }

// OutShape returns the final output shape.
func (n *Network) OutShape() []int {
	shape := n.inShape
	for _, l := range n.layers {
		shape = l.OutShape(shape)
	}
	return shape
}

// Forward runs all layers and returns the logits. The returned tensor is
// scratch owned by the final layer: it is valid until the next Forward call
// (Clone it to keep it).
func (n *Network) Forward(in *tensor.Tensor) *tensor.Tensor {
	x := in
	for _, l := range n.layers {
		x = l.Forward(x)
	}
	return x
}

// inputGradSkipper is implemented by layers that can run a cheaper backward
// pass when their input gradient is not needed. The stack's first layer
// qualifies: nothing consumes dLoss/dInput of the network input.
type inputGradSkipper interface {
	BackwardNoInputGrad(gradOut *tensor.Tensor)
}

// Backward propagates dLoss/dLogits through all layers, accumulating
// parameter gradients. The first layer's input gradient is never consumed,
// so layers that support it skip that half of their backward work.
func (n *Network) Backward(gradLogits *tensor.Tensor) {
	g := gradLogits
	for i := len(n.layers) - 1; i >= 1; i-- {
		g = n.layers[i].Backward(g)
	}
	if len(n.layers) == 0 {
		return
	}
	if s, ok := n.layers[0].(inputGradSkipper); ok {
		s.BackwardNoInputGrad(g)
		return
	}
	n.layers[0].Backward(g)
}

// ZeroGrads clears gradients in every parameterized layer.
func (n *Network) ZeroGrads() {
	for _, l := range n.layers {
		if pl, ok := l.(ParamLayer); ok {
			pl.ZeroGrads()
		}
	}
}

// Predict returns the argmax class for in.
func (n *Network) Predict(in *tensor.Tensor) int {
	return n.Forward(in).Argmax()
}

// shadowNet returns a network sharing every parameter and gradient tensor
// with n but owning per-layer scratch state, or nil if any layer does not
// support shadowing (external Layer implementations).
func (n *Network) shadowNet() *Network {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		s, ok := l.(shadowLayer)
		if !ok {
			return nil
		}
		layers[i] = s.shadow()
	}
	return &Network{layers: layers, inShape: n.inShape}
}

// Softmax returns the softmax of logits, computed stably.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	out := logits.Clone()
	data := out.Data()
	maxV := out.Max()
	sum := 0.0
	for i, v := range data {
		e := math.Exp(v - maxV)
		data[i] = e
		sum += e
	}
	for i := range data {
		data[i] /= sum
	}
	return out
}

// CrossEntropy returns the softmax cross-entropy loss for logits against the
// integer label and the gradient dLoss/dLogits.
func CrossEntropy(logits *tensor.Tensor, label int) (loss float64, grad *tensor.Tensor) {
	if label < 0 || label >= logits.Size() {
		panic(fmt.Sprintf("cnn: label %d for %d classes", label, logits.Size()))
	}
	probs := Softmax(logits)
	p := probs.Data()[label]
	const eps = 1e-12
	loss = -math.Log(p + eps)
	grad = probs
	grad.Data()[label] -= 1
	return loss, grad
}

// Sample is one labelled training example.
type Sample struct {
	Input *tensor.Tensor
	Label int
}

// SGD is a stochastic gradient descent optimizer with classical momentum
// and optional L2 weight decay.
type SGD struct {
	LR       float64
	Momentum float64
	Decay    float64
	velocity map[*tensor.Tensor]*tensor.Tensor
}

// NewSGD returns an optimizer with the given learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*tensor.Tensor]*tensor.Tensor)}
}

// Reset drops all per-parameter momentum state, releasing the buffers for
// garbage collection. Use it when every network the optimizer touched is
// retired; the next Step starts from zero velocity.
func (s *SGD) Reset() {
	clear(s.velocity)
}

// Release drops the momentum state of the given parameter tensors. Long
// multi-trial experiments that retire networks (or MicroDeep kernel
// replicas) while keeping one optimizer alive should release the retired
// parameters so their velocity buffers do not accumulate.
func (s *SGD) Release(params ...*tensor.Tensor) {
	for _, p := range params {
		delete(s.velocity, p)
	}
}

// ReleaseNetwork drops the momentum state of every parameter of n.
func (s *SGD) ReleaseNetwork(n *Network) {
	for _, l := range n.layers {
		if pl, ok := l.(ParamLayer); ok {
			s.Release(pl.Params()...)
		}
	}
}

// StateSize returns the number of parameter tensors the optimizer currently
// holds momentum buffers for (exposed for leak tests).
func (s *SGD) StateSize() int { return len(s.velocity) }

// Step applies one update: p -= lr*(g/batch + decay*p), with momentum.
func (s *SGD) Step(params, grads []*tensor.Tensor, batch int) {
	if len(params) != len(grads) {
		panic("cnn: params/grads length mismatch")
	}
	for i, p := range params {
		s.StepOne(p, grads[i], batch)
	}
}

// StepOne applies Step's update rule to a single parameter tensor. Callers
// updating many small tensors (MicroDeep's per-position kernel replicas)
// use it to avoid building slice pairs per tensor.
func (s *SGD) StepOne(p, g *tensor.Tensor, batch int) {
	if batch <= 0 {
		batch = 1
	}
	inv := 1.0 / float64(batch)
	v, ok := s.velocity[p]
	if !ok {
		v = tensor.New(p.Shape()...)
		s.velocity[p] = v
	}
	pd, gd, vd := p.Data(), g.Data(), v.Data()
	gd = gd[:len(pd)]
	vd = vd[:len(pd)]
	mom, lr, dec := s.Momentum, s.LR, s.Decay
	for j := range pd {
		step := gd[j]*inv + dec*pd[j]
		nv := mom*vd[j] - lr*step
		vd[j] = nv
		pd[j] += nv
	}
}

// StepNetwork applies Step to every parameterized layer of n.
func (s *SGD) StepNetwork(n *Network, batch int) {
	for _, l := range n.layers {
		if pl, ok := l.(ParamLayer); ok {
			s.Step(pl.Params(), pl.Grads(), batch)
		}
	}
}

// ResetParallelState drops the engine's cached slot stacks (see trainChunk).
// Call it after structurally changing the layer stack (e.g. installing conv
// replica tables): stale shadows would otherwise keep the old configuration.
func (n *Network) ResetParallelState() { n.slots = nil }

// Evaluate returns classification accuracy over samples.
func (n *Network) Evaluate(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if n.Predict(s.Input) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// SetRecorder attaches an observability recorder: training then records
// one training-loss point per epoch under <prefix>train_loss and — when
// eval is non-empty — one accuracy point per epoch under <prefix>eval_acc.
// Evaluation consumes no randomness, so attaching a recorder never changes
// the trained weights or any rng stream; it only spends wall time on the
// held-out passes. A nil recorder (the default) disables recording with zero
// overhead.
func (n *Network) SetRecorder(r obs.Recorder, prefix string, eval []Sample) {
	n.rec = r
	n.recPrefix = prefix
	n.recEval = eval
}

// observeEpoch publishes one epoch's curve points; a no-op without a
// recorder. It runs strictly between epochs — never inside the parallel
// forward workers — so recorder calls are sequential per network.
func (n *Network) observeEpoch(loss float64) {
	if n.rec == nil {
		return
	}
	n.rec.Observe(n.recPrefix+"train_loss", loss)
	if len(n.recEval) > 0 {
		n.rec.Observe(n.recPrefix+"eval_acc", n.Evaluate(n.recEval))
	}
}

// FitParallel trains for epochs epochs of mini-batch SGD, reshuffling from
// stream at every epoch, and returns the last epoch's mean loss. It runs a
// Trainer to completion; workers <= 0 selects runtime.NumCPU(), and every
// worker count yields bit-identical weights.
func (n *Network) FitParallel(samples []Sample, epochs, batch, workers int, opt *SGD, stream *rng.Stream) float64 {
	t := NewTrainer(n, opt, stream, samples, epochs, batch, workers)
	t.Step(math.MaxInt)
	return t.LastLoss()
}
