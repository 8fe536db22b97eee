package cnn

import (
	"fmt"
	"math"
	"slices"

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
	// slots is the engine's cached per-block state (see trainChunk): slot 0
	// runs on this network and also serves Forward, Backward, PredictAll
	// and Evaluate; the others run on shadow networks sharing its parameter
	// and gradient tensors.
	slots []*trainSlot
	// rec, when non-nil, receives per-epoch training curves from the
	// training engine (see SetRecorder). Shadow networks never carry it.
	rec       obs.Recorder
	recPrefix string
	recEval   []Sample
}

// NewNetwork returns a network accepting inputs of the given shape: a
// (C,H,W) map or an (F) vector. The stack must end in 1-D logits. NewNetwork
// panics on any other input or output shape, and on a stack whose layer
// geometry does not chain, so such errors surface at construction rather
// than mid-training.
func NewNetwork(inShape []int, layers ...Layer) *Network {
	if len(inShape) != 1 && len(inShape) != 3 {
		panic(fmt.Sprintf("cnn: network input shape %v, want (C,H,W) or (F)", inShape))
	}
	n := &Network{layers: layers, inShape: append([]int(nil), inShape...)}
	if out := n.OutShape(); len(out) != 1 {
		panic(fmt.Sprintf("cnn: network output shape %v, want 1-D logits", out))
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

// Forward runs one sample through all layers as a packed block of one and
// returns its 1-D logits. The returned tensor is scratch owned by the
// network: it is valid until the next call (Clone it to keep it).
func (n *Network) Forward(in *tensor.Tensor) *tensor.Tensor {
	n.invalidateBatchWeights()
	s := n.slot0()
	logits := n.forwardBatchAll(s.pack([]Sample{{Input: in}}, []int{0}))
	s.logits1 = ensureView(s.logits1, logits.Data(), logits.Size())
	return s.logits1
}

// Backward propagates dLoss/dLogits of the last Forward's sample through
// all layers, accumulating parameter gradients. The first layer's input
// gradient is never consumed, so it is never computed.
func (n *Network) Backward(gradLogits *tensor.Tensor) {
	n.invalidateBatchWeights()
	s := n.slot0()
	s.grad1 = ensureView(s.grad1, gradLogits.Data(), 1, gradLogits.Size())
	n.backwardBatchAll(s.grad1)
}

// ZeroGrads clears gradients in every parameterized layer.
func (n *Network) ZeroGrads() {
	for _, l := range n.layers {
		if pl, ok := l.(ParamLayer); ok {
			pl.ZeroGrads()
		}
	}
}

// PredictAll returns the argmax class of every sample, running blockSize
// samples per packed pass: for each sample, the first index of the largest
// of the logits Forward returns.
func (n *Network) PredictAll(samples []Sample) []int {
	classes := make([]int, len(samples))
	n.predictInto(samples, classes)
	return classes
}

// Evaluate returns classification accuracy over samples: the share whose
// PredictAll class equals the label.
func (n *Network) Evaluate(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := n.slot0()
	s.classes = slices.Grow(s.classes[:0], len(samples))[:len(samples)]
	n.predictInto(samples, s.classes)
	correct := 0
	for i, c := range s.classes {
		if c == samples[i].Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// predictInto writes the argmax class of every sample into dst, one packed
// block of up to blockSize samples per forward pass.
func (n *Network) predictInto(samples []Sample, dst []int) {
	n.invalidateBatchWeights()
	s := n.slot0()
	for lo := 0; lo < len(samples); lo += blockSize {
		hi := min(lo+blockSize, len(samples))
		logits := n.forwardBatchAll(s.pack(samples, s.span(lo, hi)))
		ld, nc := logits.Data(), logits.Dim(1)
		for j := range hi - lo {
			dst[lo+j] = argmax(ld[j*nc : (j+1)*nc])
		}
	}
}

// argmax is Tensor.Argmax over one row: the first index of the maximum.
func argmax(row []float64) int {
	best, bestIdx := math.Inf(-1), 0
	for i, v := range row {
		if v > best {
			best, bestIdx = v, i
		}
	}
	return bestIdx
}

// shadowNet returns a network sharing every parameter and gradient tensor
// with n but owning per-layer scratch state.
func (n *Network) shadowNet() *Network {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		layers[i] = l.shadow()
	}
	return &Network{layers: layers, inShape: n.inShape}
}

// CrossEntropy returns the softmax cross-entropy loss for logits against the
// integer label and the gradient dLoss/dLogits: the training engine's
// crossEntropyRows over one row.
func CrossEntropy(logits *tensor.Tensor, label int) (loss float64, grad *tensor.Tensor) {
	nc := logits.Size()
	grad = tensor.New(nc)
	var losses [1]float64
	crossEntropyRows(tensor.FromSlice(logits.Data(), 1, nc), []int{label}, tensor.FromSlice(grad.Data(), 1, nc), losses[:])
	return losses[0], grad
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
