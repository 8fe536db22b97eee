package microdeep

import (
	"fmt"
	"testing"

	"zeiot/internal/cnn"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
	"zeiot/internal/wsn"
)

// parallelTestSamples builds the separable toy set the other training tests
// use: class 1 lights a cell in the right half of the 6×6 field.
func parallelTestSamples(s *rng.Stream, n int) []cnn.Sample {
	var samples []cnn.Sample
	for i := 0; i < n; i++ {
		in := tensor.New(1, 6, 6)
		label := i % 2
		x := s.Intn(3)
		if label == 1 {
			x += 3
		}
		in.Set(1, 0, s.Intn(6), x)
		samples = append(samples, cnn.Sample{Input: in, Label: label})
	}
	return samples
}

func localUpdateModel(t *testing.T) *Model {
	t.Helper()
	w := wsn.NewGrid(6, 6, 1)
	m, err := Build(testNet(21), w, StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableLocalUpdate()
	m.SetGossip(2)
	return m
}

// referenceFit is the per-sample local-update loop the training engine must
// reproduce: Forward, CrossEntropy and Backward one sample at a time over
// one shuffle per epoch, and at every mini-batch boundary an SGD step on the
// shared parameters and every replica (gossip included) followed by zeroed
// gradients. It returns the last epoch's mean loss.
func referenceFit(m *Model, samples []cnn.Sample, epochs, batch int, opt *cnn.SGD, stream *rng.Stream) float64 {
	step := func(bsz int) {
		opt.StepNetwork(m.Net, bsz)
		m.stepReplicas(opt, bsz)
		m.Net.ZeroGrads()
		m.zeroReplicaGrads()
	}
	loss := 0.0
	for e := 0; e < epochs; e++ {
		total, inBatch := 0.0, 0
		for _, idx := range stream.Perm(len(samples)) {
			l, grad := cnn.CrossEntropy(m.Net.Forward(samples[idx].Input), samples[idx].Label)
			total += l
			m.Net.Backward(grad)
			if inBatch++; inBatch == batch {
				step(inBatch)
				inBatch = 0
			}
		}
		if inBatch > 0 {
			step(inBatch)
		}
		loss = total / float64(len(samples))
	}
	return loss
}

// TestTrainEpochParallelReplicaBitIdentical trains a local-update model with
// gossip through FitParallel at several worker counts and requires results
// bit-identical to the per-sample reference loop at tolerance zero: the
// returned loss, every shared network parameter, and every per-position
// kernel replica. Replica stacks train in packed 8-sample blocks through the
// locally connected kernel, whose forwards run on shadow stacks that each
// cache their own position-minor copy of the canonical replicas (rebuilt
// after every step, so gossip and replica updates are seen), and all
// gradients reduce in sample order, so any drift is a reordering or
// staleness bug rather than float noise.
func TestTrainEpochParallelReplicaBitIdentical(t *testing.T) {
	samples := parallelTestSamples(rng.New(77), 92) // 92 % 8 != 0: a short last batch
	const epochs, batch = 2, 8

	ref := localUpdateModel(t)
	refLoss := referenceFit(ref, samples, epochs, batch, cnn.NewSGD(0.05, 0.9), rng.New(5).Split("fit"))

	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m := localUpdateModel(t)
			loss := m.FitParallel(samples, epochs, batch, workers, cnn.NewSGD(0.05, 0.9), rng.New(5).Split("fit"))
			if loss != refLoss {
				t.Errorf("final-epoch loss %v != sequential %v", loss, refLoss)
			}
			// Shared parameters (dense layers, conv biases).
			refLayers, gotLayers := ref.Net.Layers(), m.Net.Layers()
			for i := range refLayers {
				pa, ok := refLayers[i].(cnn.ParamLayer)
				if !ok {
					continue
				}
				pb := gotLayers[i].(cnn.ParamLayer)
				ta, tb := pa.Params(), pb.Params()
				for j := range ta {
					if !tensor.Equal(ta[j], tb[j], 0) {
						t.Errorf("layer %d (%s) param %d differs from sequential result", i, refLayers[i].Name(), j)
					}
				}
			}
			// Per-position kernel replicas (including the gossip schedule:
			// with gossipEvery=2 and 12 batches/epoch, gossip fires mid-run).
			if m.stepCount != ref.stepCount {
				t.Errorf("optimizer steps %d != reference %d", m.stepCount, ref.stepCount)
			}
			if len(m.replicas) != len(ref.replicas) {
				t.Fatalf("replica group count %d != %d", len(m.replicas), len(ref.replicas))
			}
			for ri, ra := range ref.replicas {
				rb := m.replicas[ri]
				if len(ra.kernels) != len(rb.kernels) {
					t.Fatalf("replica count %d != %d in group %d", len(rb.kernels), len(ra.kernels), ri)
				}
				for p := range ra.kernels {
					if !tensor.Equal(ra.kernels[p], rb.kernels[p], 0) {
						t.Errorf("replica group %d position %d kernel differs from sequential result", ri, p)
					}
				}
			}
		})
	}
}

// TestPlanCacheInvalidation checks the (graph, assignment, network, epoch)
// plan memo end to end: repeated charges replay the cached plan, a
// Fail/Recover advances the epoch and forces a re-plan, and every charged
// cost equals what a cold network — same topology, no cache history —
// produces.
func TestPlanCacheInvalidation(t *testing.T) {
	build := func() (*Model, *wsn.Network) {
		w := wsn.NewGrid(6, 6, 1)
		m, err := Build(testNet(31), w, StrategyBalanced)
		if err != nil {
			t.Fatal(err)
		}
		return m, w
	}
	m, w := build()

	charge := func(mm *Model) (int, int) {
		mm.WSN.ResetCounters()
		fwd, err := ChargeForward(mm.Graph, mm.Assign, mm.WSN)
		if err != nil {
			t.Fatal(err)
		}
		bwd, err := ChargeBackward(mm.Graph, mm.Assign, mm.WSN)
		if err != nil {
			t.Fatal(err)
		}
		return fwd + bwd, Report(mm.WSN).Max
	}

	total0, max0 := charge(m)
	// Second charge replays the cached plan: identical costs.
	total1, max1 := charge(m)
	if total0 != total1 || max0 != max1 {
		t.Fatalf("cached replay changed costs: %d/%d vs %d/%d", total0, max0, total1, max1)
	}

	// Kill a node the plan routes through; the topology epoch must advance
	// and the new charges must match a cold network with the same failure.
	epoch0 := w.Epoch()
	const failed = 14 // interior node of the 6×6 grid
	w.Fail(failed)
	if w.Epoch() != epoch0+1 {
		t.Fatalf("Fail did not advance the epoch: %d -> %d", epoch0, w.Epoch())
	}
	w.Fail(failed) // no state change: epoch must hold
	if w.Epoch() != epoch0+1 {
		t.Fatal("failing an already-failed node advanced the epoch")
	}
	// Re-assign around the failure, as E8 does.
	assign, err := AssignBalanced(m.Graph, w, DefaultBalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	m.Assign = assign
	totalF, maxF := charge(m)

	cold, cw := build()
	cw.Fail(failed)
	coldAssign, err := AssignBalanced(cold.Graph, cw, DefaultBalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	cold.Assign = coldAssign
	coldTotal, coldMax := charge(cold)
	if totalF != coldTotal || maxF != coldMax {
		t.Fatalf("post-failure charges %d/%d != cold re-plan %d/%d", totalF, maxF, coldTotal, coldMax)
	}
	for i, n := range assign.NodeOf {
		if n != coldAssign.NodeOf[i] {
			t.Fatalf("site %d assigned to %d, cold network assigned %d", i, n, coldAssign.NodeOf[i])
		}
		if n == failed {
			t.Fatalf("site %d still assigned to failed node", i)
		}
	}

	// Recovery advances the epoch again and restores the original costs.
	w.Recover(failed)
	if w.Epoch() != epoch0+2 {
		t.Fatalf("Recover did not advance the epoch: %d", w.Epoch())
	}
	assign, err = AssignBalanced(m.Graph, w, DefaultBalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	m.Assign = assign
	totalR, maxR := charge(m)
	if totalR != total0 || maxR != max0 {
		t.Fatalf("post-recovery charges %d/%d != original %d/%d", totalR, maxR, total0, max0)
	}
}

// TestPlanReturnsOwnedCopy guards the cache against aliasing: mutating the
// slice Plan hands out must not corrupt the cached plan.
func TestPlanReturnsOwnedCopy(t *testing.T) {
	w := wsn.NewGrid(6, 6, 1)
	m, err := Build(testNet(32), w, StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := Plan(m.Graph, m.Assign, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) == 0 {
		t.Fatal("empty plan")
	}
	saved := p1[0]
	p1[0] = Transfer{From: -1, To: -1, Scalars: -1, Stage: -1}
	p2, err := Plan(m.Graph, m.Assign, w)
	if err != nil {
		t.Fatal(err)
	}
	if p2[0] != saved {
		t.Fatalf("cached plan corrupted by caller mutation: %+v", p2[0])
	}
}
