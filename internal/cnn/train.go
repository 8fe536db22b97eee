package cnn

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// blockSize is the engine's block size: each training mini-batch runs as
// blocks of min(blockSize, batch) samples, and PredictAll and Evaluate run
// blocks of blockSize, one packed layer call per block.
// BenchmarkTrainBlockSize sweeps it over one epoch of the e2 lounge CNN: one
// run on a 2.1 GHz Xeon read 71.2k samples/s at 8, 70.1k at 4 and 63.6k at
// 16; five runs on a shared 2-vCPU Xeon read medians of 50.3k at 4, 56.7k at
// 8 and 63.2k at 16, with overlapping spreads.
const blockSize = 8

// Trainer is the one CNN fit loop: epochs of mini-batch SGD over samples,
// reshuffled from stream at every epoch, run in resumable steps of whole
// mini-batches. FitParallel runs a Trainer to completion; an intermittently
// powered node steps one whenever its capacitor can fund a batch and
// checkpoints it (Save, ResumeTrainer) across a power loss.
//
// The identity argument: the result is fixed by one Perm per epoch drawn
// from the stream, the optimizer stepping at fixed mini-batch boundaries,
// and the epoch loss accumulated in sample order. Chunked training keeps all
// three — the cursor only ever rests at a batch boundary (where gradients
// are zero, so no partial accumulation needs saving), the permutation is
// recomputed on resume from the stream state captured at epoch start, and
// each chunk continues the loss sum of the one before. Calling Step(k) until
// Done is therefore bit-identical to one FitParallel call for every k,
// worker count and resume point.
type Trainer struct {
	net     *Network
	opt     Optimizer
	stream  *rng.Stream
	samples []Sample
	epochs  int
	batch   int
	workers int

	epoch      int   // completed epochs
	cursor     int   // sample cursor within the current epoch (batch-aligned)
	perm       []int // current epoch's shuffle; nil until the epoch starts
	epochStart rng.State
	lossSum    float64
	lossCount  int
	lastLoss   float64
	batches    int // lifetime mini-batches run (kill-switch accounting)
}

// NewTrainer returns a trainer that will run `epochs` epochs of mini-batch
// training over samples, shuffled per epoch from stream, stepping opt at
// every mini-batch boundary with forwards on `workers` goroutines (<= 0
// selects runtime.NumCPU()).
func NewTrainer(net *Network, opt Optimizer, stream *rng.Stream, samples []Sample, epochs, batch, workers int) *Trainer {
	if batch <= 0 {
		panic("cnn: non-positive batch size")
	}
	return &Trainer{net: net, opt: opt, stream: stream, samples: samples,
		epochs: epochs, batch: batch, workers: workers}
}

// Net returns the network under training.
func (t *Trainer) Net() *Network { return t.net }

// Done reports whether every epoch has completed.
func (t *Trainer) Done() bool { return t.epoch >= t.epochs || len(t.samples) == 0 }

// EpochsCompleted returns the number of fully trained epochs.
func (t *Trainer) EpochsCompleted() int { return t.epoch }

// BatchesRun returns the lifetime mini-batch count, checkpoints included.
func (t *Trainer) BatchesRun() int { return t.batches }

// LastLoss returns the mean training loss of the most recently completed
// epoch — after the final epoch, the value FitParallel returns.
func (t *Trainer) LastLoss() float64 { return t.lastLoss }

// beginEpoch records the stream position (so resume can recompute the
// shuffle) and draws the epoch's permutation.
func (t *Trainer) beginEpoch() {
	t.epochStart = t.stream.State()
	t.perm = t.stream.Perm(len(t.samples))
	t.cursor = 0
	t.lossSum = 0
	t.lossCount = 0
	t.net.ZeroGrads()
}

// Step trains up to maxBatches mini-batches, crossing epoch boundaries as
// needed, and returns the number actually run (0 when Done).
func (t *Trainer) Step(maxBatches int) int {
	ran := 0
	for ran < maxBatches && !t.Done() {
		if t.perm == nil {
			t.beginEpoch()
		}
		k := min(maxBatches-ran, (len(t.perm)-t.cursor+t.batch-1)/t.batch)
		end := min(t.cursor+k*t.batch, len(t.perm))
		t.lossSum = t.net.trainChunk(t.samples, t.perm[t.cursor:end], t.batch, blockSize, t.workers, t.lossSum, t.stepOptimizer)
		t.lossCount += end - t.cursor
		t.batches += k
		ran += k
		t.cursor = end
		if t.cursor == len(t.perm) {
			t.lastLoss = t.lossSum / float64(t.lossCount)
			t.net.observeEpoch(t.lastLoss)
			t.epoch++
			t.perm = nil
			t.cursor = 0
		}
	}
	return ran
}

// stepOptimizer is the mini-batch boundary: one optimizer step over the
// accumulated gradients, which are then zeroed.
func (t *Trainer) stepOptimizer(bsz int) {
	t.opt.StepNetwork(t.net, bsz)
	t.net.ZeroGrads()
}

// trainSlot is the state of one in-flight block: the network that runs it
// (slot 0 is the owning network itself, the others shadow stacks sharing its
// parameter and gradient tensors), its labels, packed input, logits,
// cross-entropy scratch, and the views and buffers the one-sample and
// inference entry points reuse.
type trainSlot struct {
	net     *Network
	labels  []int
	logits  *tensor.Tensor
	inB     *tensor.Tensor
	grad    *tensor.Tensor // (bsz, nclass) dLoss/dLogits rows
	losses  []float64
	view    *tensor.Tensor // a one-sample block: a view of the sample
	logits1 *tensor.Tensor // Forward's 1-D view of its logits row
	grad1   *tensor.Tensor // Backward's (1, nclass) view of its gradient
	idx     []int          // span's index buffer
	classes []int          // Evaluate's class buffer
}

// pack returns samples[idx] as one packed block: (C,B,H,W) for a (C,H,W)
// input shape, (B,F) for an (F) one, with sample j of the block in lane j.
// A block of one is a zero-copy view of its sample, which already has the
// packed layout. It is the only place samples enter the network, so it
// panics on any sample whose shape is not the network's input shape, naming
// the sample's index in samples and both shapes.
func (s *trainSlot) pack(samples []Sample, idx []int) *tensor.Tensor {
	in := s.net.inShape
	for _, i := range idx {
		if got := samples[i].Input.Shape(); !slices.Equal(got, in) {
			panic(fmt.Sprintf("cnn: sample %d has shape %v, network input is %v", i, got, in))
		}
	}
	bsz := len(idx)
	if bsz == 1 {
		d := samples[idx[0]].Input.Data()
		if len(in) == 3 {
			s.view = ensureView(s.view, d, in[0], 1, in[1], in[2])
		} else {
			s.view = ensureView(s.view, d, 1, in[0])
		}
		return s.view
	}
	if len(in) == 3 {
		ch, hw := in[0], in[1]*in[2]
		s.inB = tensor.Ensure(s.inB, ch, bsz, in[1], in[2])
		dst := s.inB.Data()
		for j, i := range idx {
			src := samples[i].Input.Data()
			for c := 0; c < ch; c++ {
				copy(dst[(c*bsz+j)*hw:(c*bsz+j+1)*hw], src[c*hw:(c+1)*hw])
			}
		}
		return s.inB
	}
	f := in[0]
	s.inB = tensor.Ensure(s.inB, bsz, f)
	dst := s.inB.Data()
	for j, i := range idx {
		copy(dst[j*f:(j+1)*f], samples[i].Input.Data())
	}
	return s.inB
}

// span returns the indices lo..hi-1 in the slot's reused index buffer.
func (s *trainSlot) span(lo, hi int) []int {
	s.idx = s.idx[:0]
	for i := lo; i < hi; i++ {
		s.idx = append(s.idx, i)
	}
	return s.idx
}

// forward runs one block's forward pass and sizes its cross-entropy
// scratch.
func (s *trainSlot) forward(samples []Sample, idx []int) {
	s.labels = s.labels[:0]
	for _, i := range idx {
		s.labels = append(s.labels, samples[i].Label)
	}
	s.logits = s.net.forwardBatchAll(s.pack(samples, idx))
	bsz := len(idx)
	s.grad = tensor.Ensure(s.grad, bsz, s.logits.Dim(1))
	if cap(s.losses) < bsz {
		s.losses = make([]float64, bsz)
	}
	s.losses = s.losses[:bsz]
}

// ensureSlots grows the cached slot list to k entries (slot 0 always
// exists).
func (n *Network) ensureSlots(k int) {
	if len(n.slots) == 0 {
		n.slots = []*trainSlot{{net: n}}
	}
	for len(n.slots) < k {
		n.slots = append(n.slots, &trainSlot{net: n.shadowNet()})
	}
}

// slot0 returns the slot that runs on n itself.
func (n *Network) slot0() *trainSlot {
	n.ensureSlots(1)
	return n.slots[0]
}

// blockOf returns the bi-th block of size samples of the mini-batch mb.
func blockOf(mb []int, bi, size int) []int { return mb[bi*size : min((bi+1)*size, len(mb))] }

// trainChunk is the training engine's one sample loop. It trains the
// mini-batches of perm — batch samples each, the last possibly short — and
// returns total plus their losses, added in sample order.
//
// Each mini-batch splits into blocks of min(block, batch) samples, each run
// through the packed kernels of batch.go. With workers > 1 (<= 0 selects
// runtime.NumCPU()) the block forwards of a mini-batch run concurrently,
// each on its own slot stack; cross-entropy and backward then reduce into
// the shared gradients sequentially in block order, so every gradient
// element receives its terms in sample order at any block size and worker
// count. step runs at every mini-batch boundary with the mini-batch size;
// the caller steps its optimizer and zeroes all gradients there (they must
// also be zero on entry).
func (n *Network) trainChunk(samples []Sample, perm []int, batch, block, workers int, total float64, step func(bsz int)) float64 {
	block = min(block, batch)
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	maxBlocks := (batch + block - 1) / block
	workers = min(workers, maxBlocks)
	slots := 1
	if workers > 1 {
		slots = maxBlocks
	}
	n.ensureSlots(slots)
	n.invalidateBatchWeights()
	for start := 0; start < len(perm); start += batch {
		mb := perm[start:min(start+batch, len(perm))]
		nb := (len(mb) + block - 1) / block
		w := min(workers, nb)
		if w > 1 {
			var wg sync.WaitGroup
			for g := 0; g < w; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for bi := g; bi < nb; bi += w {
						n.slots[bi].forward(samples, blockOf(mb, bi, block))
					}
				}(g)
			}
			wg.Wait()
		}
		for bi := 0; bi < nb; bi++ {
			s := n.slots[0]
			if w > 1 {
				s = n.slots[bi]
			} else {
				s.forward(samples, blockOf(mb, bi, block))
			}
			crossEntropyRows(s.logits, s.labels, s.grad, s.losses)
			for _, l := range s.losses {
				total += l
			}
			s.net.backwardBatchAll(s.grad)
		}
		step(len(mb))
		n.invalidateBatchWeights()
	}
	return total
}
