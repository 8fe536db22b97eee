package cnn

import (
	"fmt"
	"math"
	"testing"

	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// trainBlocks trains net for epochs epochs through the engine loop with the
// given block size and worker count, drawing one permutation per epoch from
// a fixed stream, and returns the last epoch's mean loss.
func trainBlocks(net *Network, samples []Sample, epochs, batch, block, workers int, opt Optimizer) float64 {
	s := rng.New(424242)
	loss := 0.0
	for e := 0; e < epochs; e++ {
		net.ZeroGrads()
		total := net.trainChunk(samples, s.Perm(len(samples)), batch, block, workers, 0, func(bsz int) {
			opt.StepNetwork(net, bsz)
			net.ZeroGrads()
		})
		loss = total / float64(len(samples))
	}
	return loss
}

// trainRef is trainBlocks through the per-sample reference loops of
// ref_test.go: the same permutations, mini-batches, optimizer steps and
// sample-order loss sum, one sample at a time. Every engine configuration
// must reproduce it bit for bit.
func trainRef(net *Network, samples []Sample, epochs, batch int, opt Optimizer) float64 {
	s := rng.New(424242)
	loss := 0.0
	for e := 0; e < epochs; e++ {
		net.ZeroGrads()
		perm := s.Perm(len(samples))
		total := 0.0
		for start := 0; start < len(perm); start += batch {
			mb := perm[start:min(start+batch, len(perm))]
			for _, i := range mb {
				total += refTrainSample(net, samples[i])
			}
			opt.StepNetwork(net, len(mb))
			net.ZeroGrads()
		}
		loss = total / float64(len(samples))
	}
	return loss
}

// replicaSGD is SGD that, like MicroDeep's local-update optimizer, also
// steps every per-position kernel replica with its own gradient and then
// zeroes the replica gradients.
type replicaSGD struct{ *SGD }

// StepNetwork implements Optimizer.
func (o replicaSGD) StepNetwork(n *Network, batch int) {
	o.SGD.StepNetwork(n, batch)
	for _, l := range n.layers {
		if c, ok := l.(*Conv2D); ok {
			for p, k := range c.repK {
				o.StepOne(k, c.repG[p], batch)
				c.repG[p].Zero()
			}
		}
	}
}

// requireSameParams fails unless every parameter tensor of a and b, and
// every conv kernel replica of a, is bit-identical to b's (tolerance zero).
func requireSameParams(t *testing.T, a, b *Network, ctx string) {
	t.Helper()
	for li, l := range a.Layers() {
		pa, ok := l.(ParamLayer)
		if !ok {
			continue
		}
		pb := b.Layers()[li].(ParamLayer)
		for pi, ta := range pa.Params() {
			if !tensor.Equal(ta, pb.Params()[pi], 0) {
				t.Fatalf("%s: layer %d (%s) param %d differs from reference", ctx, li, l.Name(), pi)
			}
		}
		if ca, ok := l.(*Conv2D); ok && ca.repK != nil {
			cb := b.Layers()[li].(*Conv2D)
			if len(ca.repK) != len(cb.repK) {
				t.Fatalf("%s: layer %d has %d replicas, reference %d", ctx, li, len(cb.repK), len(ca.repK))
			}
			for p, k := range ca.repK {
				if !tensor.Equal(k, cb.repK[p], 0) {
					t.Fatalf("%s: layer %d replica %d differs from reference", ctx, li, p)
				}
			}
		}
	}
}

// installReplicas gives conv a replica table over its oh×ow output
// positions: position p starts from the shared kernel perturbed by its own
// noise draw, so every position computes with a distinct kernel (a locally
// connected layer), and gradients accumulate per position.
func installReplicas(conv *Conv2D, oh, ow int, s *rng.Stream) {
	kernels := make([]*tensor.Tensor, oh*ow)
	grads := make([]*tensor.Tensor, oh*ow)
	for p := range kernels {
		k := conv.Weight().Clone()
		kd := k.Data()
		for i := range kd {
			kd[i] += 0.2 * s.NormMeanStd(0, 1)
		}
		kernels[p] = k
		grads[p] = tensor.New(conv.Weight().Shape()...)
	}
	conv.SetReplicaTable(kernels, grads, ow)
}

func spatialSamples(seed uint64, n, ch, h, w, classes int) []Sample {
	s := rng.New(seed)
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{Input: randomInput(s, ch, h, w), Label: i % classes}
	}
	return out
}

func flatSamples(seed uint64, n, f, classes int) []Sample {
	s := rng.New(seed)
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{Input: randomInput(s, f), Label: i % classes}
	}
	return out
}

// batchNets returns the architectures the bit-identity suite covers: padded
// 3×3 convs with max pooling (the fast paths), a stride-2 5×5 conv (the
// general im2col/scatter path), a dense-only stack on flat input, and four locally connected stacks (replica tables with a distinct
// kernel per position): e2's MicroDeep CNN (single-channel input, the
// sparse-winner backward), e1's feasible CNN (multi-channel input), a
// stride-2 5×5 replica conv (the general scatter) and a replica conv behind a
// plain conv (the input gradient through the replicas).
func batchNets() map[string]struct {
	build   func() *Network
	samples []Sample
} {
	return map[string]struct {
		build   func() *Network
		samples []Sample
	}{
		"conv3x3-maxpool": {
			build:   func() *Network { return buildTinyNet(11) },
			samples: spatialSamples(101, 23, 1, 6, 6, 3),
		},
		"conv5x5-stride2": {
			build: func() *Network {
				s := rng.New(12)
				return NewNetwork([]int{2, 9, 9},
					NewConv2D(2, 3, 5, 5, 2, 1, s.Split("c")),
					NewReLU(),
					NewFlatten(),
					NewDense(3*4*4, 4, s.Split("d")),
				)
			},
			samples: spatialSamples(102, 19, 2, 9, 9, 4),
		},
		"dense-only": {
			build: func() *Network {
				s := rng.New(14)
				return NewNetwork([]int{10},
					NewDense(10, 16, s.Split("d1")),
					NewReLU(),
					NewDense(16, 5, s.Split("d2")),
				)
			},
			samples: flatSamples(104, 33, 10, 5),
		},
		"local-e2-lounge": {
			build: func() *Network {
				s := rng.New(15)
				conv := NewConv2D(1, 4, 3, 3, 1, 1, s.Split("c"))
				installReplicas(conv, 17, 25, s.Split("r"))
				return NewNetwork([]int{1, 17, 25},
					conv,
					NewReLU(),
					NewMaxPool2D(3, 3),
					NewFlatten(),
					NewDense(4*5*8, 16, s.Split("d1")),
					NewReLU(),
					NewDense(16, 2, s.Split("d2")),
				)
			},
			samples: spatialSamples(105, 19, 1, 17, 25, 2),
		},
		"local-e1-feasible": {
			build: func() *Network {
				s := rng.New(16)
				conv := NewConv2D(10, 6, 3, 3, 1, 1, s.Split("c"))
				installReplicas(conv, 8, 8, s.Split("r"))
				return NewNetwork([]int{10, 8, 8},
					conv,
					NewReLU(),
					NewMaxPool2D(2, 2),
					NewFlatten(),
					NewDense(6*4*4, 24, s.Split("d1")),
					NewReLU(),
					NewDense(24, 2, s.Split("d2")),
				)
			},
			samples: spatialSamples(106, 19, 10, 8, 8, 2),
		},
		"local-5x5-stride2": {
			build: func() *Network {
				s := rng.New(17)
				conv := NewConv2D(2, 3, 5, 5, 2, 1, s.Split("c"))
				installReplicas(conv, 4, 4, s.Split("r"))
				return NewNetwork([]int{2, 9, 9},
					conv,
					NewFlatten(),
					NewDense(3*4*4, 4, s.Split("d")),
				)
			},
			samples: spatialSamples(107, 19, 2, 9, 9, 4),
		},
		"local-after-conv": {
			build: func() *Network {
				s := rng.New(18)
				conv := NewConv2D(2, 3, 3, 3, 1, 1, s.Split("c2"))
				installReplicas(conv, 6, 6, s.Split("r"))
				return NewNetwork([]int{1, 6, 6},
					NewConv2D(1, 2, 3, 3, 1, 1, s.Split("c1")),
					NewReLU(),
					conv,
					NewReLU(),
					NewFlatten(),
					NewDense(3*6*6, 3, s.Split("d")),
				)
			},
			samples: spatialSamples(108, 21, 1, 6, 6, 3),
		},
	}
}

// TestTrainEpochBatchedBitIdentical pins the engine's bit-identity
// contract: every block size (1 is a block of one; 3 leaves partial blocks
// inside full mini-batches; 16 exceeds the batch of 8) at every worker count
// must reproduce the per-sample reference's loss and weights at tolerance
// zero.
// Under -race it also checks that concurrent block forwards share no state.
func TestTrainEpochBatchedBitIdentical(t *testing.T) {
	for name, tc := range batchNets() {
		t.Run(name, func(t *testing.T) {
			ref := tc.build()
			refLoss := trainRef(ref, tc.samples, 3, 8, replicaSGD{NewSGD(0.05, 0.9)})
			for _, block := range []int{1, 2, 3, 4, 8, 16} {
				for _, workers := range []int{1, 2, 4} {
					net := tc.build()
					loss := trainBlocks(net, tc.samples, 3, 8, block, workers, replicaSGD{NewSGD(0.05, 0.9)})
					ctx := fmt.Sprintf("block %d, workers %d", block, workers)
					if loss != refLoss {
						t.Fatalf("%s: loss %.17g != reference %.17g", ctx, loss, refLoss)
					}
					requireSameParams(t, net, ref, ctx)
				}
			}
		})
	}
}

// TestTrainEpochParallelUsesBatchKernel checks the public fit path on every
// stack: a Trainer — FitParallel's loop, here with replicaSGD so replica
// stacks train their replicas as MicroDeep does — lands on the per-sample
// reference's bits at every worker count.
func TestTrainEpochParallelUsesBatchKernel(t *testing.T) {
	for name, tc := range batchNets() {
		t.Run(name, func(t *testing.T) {
			ref := tc.build()
			refLoss := trainRef(ref, tc.samples, 3, 8, replicaSGD{NewSGD(0.05, 0.9)})
			for _, workers := range []int{1, 2, 4} {
				net := tc.build()
				tr := NewTrainer(net, replicaSGD{NewSGD(0.05, 0.9)}, rng.New(424242), tc.samples, 3, 8, workers)
				tr.Step(math.MaxInt)
				if loss := tr.LastLoss(); loss != refLoss {
					t.Fatalf("workers %d: loss %.17g != reference %.17g", workers, loss, refLoss)
				}
				requireSameParams(t, net, ref, name)
			}
		})
	}
}

// TestFitRoutesThroughBatchKernel checks FitParallel at batch 1 (blocks of
// one) and batch 8 (one packed block per mini-batch) against the reference.
func TestFitRoutesThroughBatchKernel(t *testing.T) {
	samples := spatialSamples(101, 23, 1, 6, 6, 3)
	for _, batch := range []int{1, 8} {
		ref := buildTinyNet(11)
		refLoss := trainRef(ref, samples, 3, batch, NewSGD(0.05, 0.9))
		net := buildTinyNet(11)
		loss := net.FitParallel(samples, 3, batch, 1, NewSGD(0.05, 0.9), rng.New(424242))
		if loss != refLoss {
			t.Fatalf("batch %d: FitParallel loss %.17g != reference %.17g", batch, loss, refLoss)
		}
		requireSameParams(t, net, ref, "fit")
	}
}

// TestBatchedReplicaAliasMatchesPlainConv pins the locally connected
// kernel against the shared-weight one: a replica table whose every
// position aliases the shared kernel and gradient is the plain conv, so
// packed training through the replica path (block 8, two workers) must land
// on the plain conv's reference bits.
func TestBatchedReplicaAliasMatchesPlainConv(t *testing.T) {
	build := func(replica bool) *Network {
		s := rng.New(21)
		conv := NewConv2D(1, 2, 3, 3, 1, 1, s.Split("c"))
		net := NewNetwork([]int{1, 6, 6}, conv, NewReLU(), NewFlatten(), NewDense(2*6*6, 3, s.Split("d")))
		if replica {
			kernels := make([]*tensor.Tensor, 6*6)
			grads := make([]*tensor.Tensor, 6*6)
			for i := range kernels {
				kernels[i] = conv.Params()[0]
				grads[i] = conv.Grads()[0]
			}
			conv.SetReplicaTable(kernels, grads, 6)
		}
		return net
	}
	samples := spatialSamples(201, 12, 1, 6, 6, 3)

	ref := build(false)
	refLoss := trainRef(ref, samples, 2, 4, NewSGD(0.05, 0.9))

	net := build(true)
	loss := trainBlocks(net, samples, 2, 4, 8, 2, NewSGD(0.05, 0.9))
	if loss != refLoss {
		t.Fatalf("aliased replica loss %.17g != plain conv %.17g", loss, refLoss)
	}
	requireSameParams(t, ref, net, "aliased replicas")
}

// TestBatchedReplicaEditNotStale pins the invalidation of the cached
// position-minor replica copy: a replica edited in place between two
// FitParallel calls must be what the second call trains with, exactly as in
// the per-sample reference that makes the same edit.
func TestBatchedReplicaEditNotStale(t *testing.T) {
	tc := batchNets()["local-e2-lounge"]
	edit := func(net *Network) {
		k := net.Layers()[0].(*Conv2D).repK[3*25+7]
		k.Data()[4] += 0.75
	}
	ref := tc.build()
	trainRef(ref, tc.samples, 1, 8, NewSGD(0.05, 0.9))
	edit(ref)
	refLoss := trainRef(ref, tc.samples, 1, 8, NewSGD(0.05, 0.9))

	for _, workers := range []int{1, 2} {
		net := tc.build()
		net.FitParallel(tc.samples, 1, 8, workers, NewSGD(0.05, 0.9), rng.New(424242))
		edit(net)
		loss := net.FitParallel(tc.samples, 1, 8, workers, NewSGD(0.05, 0.9), rng.New(424242))
		ctx := fmt.Sprintf("workers %d", workers)
		if loss != refLoss {
			t.Fatalf("%s: loss %.17g after the edit != reference %.17g", ctx, loss, refLoss)
		}
		requireSameParams(t, net, ref, ctx)
	}
}

// allocNet builds the e2 lounge CNN, which the alloc tests and
// BenchmarkTrainBlockSize run, and one random input for it.
func allocNet(seed uint64) (*Network, *tensor.Tensor) {
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
	return net, randomInput(s, 1, 17, 25)
}

// BenchmarkTrainBlockSize sweeps the engine's block size over one epoch of
// the e2 lounge CNN (64 samples, batch 16, one worker) — the evidence for
// blockSize. The local-block variants run the same CNN with a replica table
// on its conv, as MicroDeep's local-update mode trains it through the
// locally connected kernel. Results are bit-identical across all sizes;
// only samples_per_sec moves. Keep the default -benchtime for
// the local variants: the same 64 samples train on, so after some 6k
// optimizer steps the net has fit them and most replica momenta have
// decayed into subnormal floats, which slows StepOne.
func BenchmarkTrainBlockSize(b *testing.B) {
	s := rng.New(77)
	samples := make([]Sample, 64)
	for i := range samples {
		samples[i] = Sample{Input: randomInput(s, 1, 17, 25), Label: i % 2}
	}
	perm := make([]int, len(samples))
	for i := range perm {
		perm[i] = i
	}
	run := func(name string, block int, local bool) {
		b.Run(name, func(b *testing.B) {
			net, _ := allocNet(6)
			var opt Optimizer = NewSGD(0.01, 0.9)
			if local {
				installReplicas(net.Layers()[0].(*Conv2D), 17, 25, rng.New(78))
				opt = replicaSGD{NewSGD(0.01, 0.9)}
			}
			step := func(bsz int) {
				opt.StepNetwork(net, bsz)
				net.ZeroGrads()
			}
			net.trainChunk(samples, perm, 16, block, 1, 0, step) // warm scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.trainChunk(samples, perm, 16, block, 1, 0, step)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*float64(len(samples))/b.Elapsed().Seconds(), "samples_per_sec")
		})
	}
	for _, block := range []int{1, 4, 8, 16} {
		run(fmt.Sprintf("block%d", block), block, false)
	}
	for _, block := range []int{1, 8} {
		run(fmt.Sprintf("local-block%d", block), block, true)
	}
}
