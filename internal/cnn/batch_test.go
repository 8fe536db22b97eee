package cnn

import (
	"fmt"
	"testing"

	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// trainBlocks trains net for epochs epochs through the engine loop with the
// given block size and worker count, drawing one permutation per epoch from
// a fixed stream, and returns the last epoch's mean loss. Block 1 at one
// worker — Forward, CrossEntropy and Backward one sample at a time — is the
// reference every other configuration must reproduce bit for bit.
func trainBlocks(net *Network, samples []Sample, epochs, batch, block, workers int, opt *SGD) float64 {
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

// trainRef is trainBlocks at the per-sample reference configuration.
func trainRef(net *Network, samples []Sample, epochs, batch int, opt *SGD) float64 {
	return trainBlocks(net, samples, epochs, batch, 1, 1, opt)
}

// requireSameParams fails unless every parameter tensor of a and b is
// bit-identical (tolerance zero).
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
	}
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
// general im2col/scatter path), average pooling, and a dense-only stack on
// flat input.
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
		"conv-avgpool": {
			build:   func() *Network { return buildFullNet(13) },
			samples: spatialSamples(103, 21, 1, 8, 8, 2),
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
	}
}

// TestTrainEpochBatchedBitIdentical pins the engine's bit-identity
// contract: every block size (3 leaves partial blocks inside full
// mini-batches; 16 exceeds the batch of 8) at every worker count must
// reproduce the per-sample reference's loss and weights at tolerance zero.
// Under -race it also checks that concurrent block forwards share no state.
func TestTrainEpochBatchedBitIdentical(t *testing.T) {
	for name, tc := range batchNets() {
		t.Run(name, func(t *testing.T) {
			ref := tc.build()
			refLoss := trainRef(ref, tc.samples, 3, 8, NewSGD(0.05, 0.9))
			for _, block := range []int{1, 2, 3, 4, 8, 16} {
				for _, workers := range []int{1, 2, 4} {
					net := tc.build()
					loss := trainBlocks(net, tc.samples, 3, 8, block, workers, NewSGD(0.05, 0.9))
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
// batchable stack: FitParallel runs the packed kernels (the slot holds a
// packed input block afterwards) and lands on the per-sample reference's
// bits at every worker count.
func TestTrainEpochParallelUsesBatchKernel(t *testing.T) {
	for name, tc := range batchNets() {
		t.Run(name, func(t *testing.T) {
			ref := tc.build()
			refLoss := trainRef(ref, tc.samples, 3, 8, NewSGD(0.05, 0.9))
			for _, workers := range []int{1, 2, 4} {
				net := tc.build()
				loss := net.FitParallel(tc.samples, 3, 8, workers, NewSGD(0.05, 0.9), rng.New(424242))
				if loss != refLoss {
					t.Fatalf("workers %d: loss %.17g != reference %.17g", workers, loss, refLoss)
				}
				requireSameParams(t, net, ref, name)
				if net.slots[0].inB == nil {
					t.Fatalf("workers %d: FitParallel did not run the batched kernels", workers)
				}
			}
		})
	}
}

// TestFitRoutesThroughBatchKernel pins the routing rule: the shape of the
// stack and the batch size pick the path, not a knob. A batchable stack with
// batch >= 2 trains in packed blocks, batch 1 trains per sample, and both
// match the reference.
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
		if packed := net.slots[0].inB != nil; packed != (batch > 1) {
			t.Fatalf("batch %d: packed path used = %v", batch, packed)
		}
	}
}

// TestBatchedFallsBackOnReplicaConv pins the replica-mode fallback: a conv
// with per-position kernel tables cannot run batched, so the engine must
// train it in 1-sample blocks whatever block size it is asked for.
func TestBatchedFallsBackOnReplicaConv(t *testing.T) {
	build := func(replica bool) *Network {
		s := rng.New(21)
		conv := NewConv2D(1, 2, 3, 3, 1, 1, s.Split("c"))
		net := NewNetwork([]int{1, 6, 6}, conv, NewReLU(), NewFlatten(), NewDense(2*6*6, 3, s.Split("d")))
		if replica {
			// One shared replica per output position: numerically identical
			// to the plain conv, but it must force the per-sample path.
			oh, ow := 6, 6
			kernels := make([]*tensor.Tensor, oh*ow)
			grads := make([]*tensor.Tensor, oh*ow)
			for i := range kernels {
				kernels[i] = conv.Params()[0]
				grads[i] = conv.Grads()[0]
			}
			conv.SetReplicaTable(kernels, grads, ow)
		}
		return net
	}
	samples := spatialSamples(201, 12, 1, 6, 6, 3)

	ref := build(false)
	refLoss := trainRef(ref, samples, 2, 4, NewSGD(0.05, 0.9))

	net := build(true)
	if net.batchable() {
		t.Fatal("replica-hooked conv reported batchable")
	}
	loss := trainBlocks(net, samples, 2, 4, 8, 2, NewSGD(0.05, 0.9))
	if loss != refLoss {
		t.Fatalf("fallback loss %.17g != reference %.17g", loss, refLoss)
	}
	requireSameParams(t, net, ref, "replica fallback")
	if net.slots[0].inB != nil {
		t.Fatal("replica stack ran the batched kernels")
	}
}

// BenchmarkTrainBlockSize sweeps the engine's block size over one epoch of
// the e2 lounge CNN (64 samples, batch 16, one worker) — the evidence for
// blockSize. Results are bit-identical across all sizes; only
// samples_per_sec moves. block1 is the per-sample path.
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
	for _, block := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("block%d", block), func(b *testing.B) {
			net, _ := allocNetAnyBuild(6)
			opt := NewSGD(0.01, 0.9)
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
}
