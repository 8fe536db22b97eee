package microdeep

import (
	"bytes"
	"strings"
	"testing"

	"zeiot/internal/cnn"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
	"zeiot/internal/wsn"
)

func checkpointTrainSamples(seed uint64, n int) []cnn.Sample {
	s := rng.New(seed)
	out := make([]cnn.Sample, n)
	for i := range out {
		out[i] = cnn.Sample{Input: randInput(s), Label: i % 2}
	}
	return out
}

func buildLocalUpdateModel(t *testing.T, seed uint64, gossipEvery int) *Model {
	t.Helper()
	m, err := Build(testNet(seed), wsn.NewGrid(6, 6, 1), StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableLocalUpdate()
	m.SetGossip(gossipEvery)
	return m
}

// requireSameModel fails unless the two models' shared network parameters
// AND every per-position kernel replica are bit-identical.
func requireSameModel(t *testing.T, a, b *Model, ctx string) {
	t.Helper()
	la, lb := a.Net.Layers(), b.Net.Layers()
	for i := range la {
		pa, ok := la[i].(cnn.ParamLayer)
		if !ok {
			continue
		}
		pb := lb[i].(cnn.ParamLayer)
		for j, ta := range pa.Params() {
			if !tensor.Equal(ta, pb.Params()[j], 0) {
				t.Fatalf("%s: layer %d param %d differs", ctx, i, j)
			}
		}
	}
	if len(a.replicas) != len(b.replicas) {
		t.Fatalf("%s: replica stage count %d vs %d", ctx, len(a.replicas), len(b.replicas))
	}
	for i := range a.replicas {
		ra, rb := a.replicas[i], b.replicas[i]
		if len(ra.kernels) != len(rb.kernels) {
			t.Fatalf("%s: stage %d kernel count %d vs %d", ctx, i, len(ra.kernels), len(rb.kernels))
		}
		for p := range ra.kernels {
			if !tensor.Equal(ra.kernels[p], rb.kernels[p], 0) {
				t.Fatalf("%s: stage %d kernel %d differs", ctx, i, p)
			}
		}
	}
}

// TestModelSaveRestoreBitIdentity checkpoints a local-update model mid-run
// and requires the restored model to finish training bit-identically to the
// uninterrupted one — replicas, momentum, gossip phase, and shuffles all
// included. The gossip cadence (every 3 steps, with 6 steps/epoch) straddles
// the save point, so a dropped step counter would fire gossip on the wrong
// step and diverge immediately.
func TestModelSaveRestoreBitIdentity(t *testing.T) {
	samples := checkpointTrainSamples(71, 44) // 44 % 8 != 0: partial batch every epoch

	ref := buildLocalUpdateModel(t, 14, 3)
	refOpt := cnn.NewSGD(0.05, 0.9)
	refStream := rng.New(77).Split("fit")
	ref.FitParallel(samples, 2, 8, 1, refOpt, refStream)

	var ck bytes.Buffer
	if err := ref.SaveTraining(&ck, refOpt, refStream); err != nil {
		t.Fatal(err)
	}
	ref.FitParallel(samples, 3, 8, 1, refOpt, refStream) // uninterrupted continuation

	// A fresh process rebuilds the model the same way (different init seed is
	// fine — every weight is overwritten) and restores the checkpoint.
	res := buildLocalUpdateModel(t, 99, 0) // gossip cadence comes from the checkpoint
	resOpt := cnn.NewSGD(0.05, 0.9)
	streams, err := res.RestoreTraining(bytes.NewReader(ck.Bytes()), resOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 1 {
		t.Fatalf("RestoreTraining returned %d streams, want 1", len(streams))
	}
	if res.gossipEvery != 3 || res.stepCount != ref.stepCount-18 {
		t.Fatalf("restored gossip cadence/phase = %d/%d", res.gossipEvery, res.stepCount)
	}
	res.FitParallel(samples, 3, 8, 4, resOpt, streams[0]) // resumed, parallel for good measure

	requireSameModel(t, ref, res, "restored local-update model")
	if ref.stepCount != res.stepCount {
		t.Fatalf("step counters diverged: %d vs %d", ref.stepCount, res.stepCount)
	}

	// The restored replicas stay wired into the conv hooks: the distributed
	// executor must see the restored kernels, not stale clones.
	in := randInput(rng.New(123))
	want := res.Net.Forward(in)
	got, err := res.ForwardDistributed(in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(want, got, 1e-9) {
		t.Fatalf("distributed forward diverged after restore: %v vs %v", want, got)
	}
}

// TestModelRestoreRejectsMismatch covers the rejection paths: mode mismatch
// and garbage bytes.
func TestModelRestoreRejectsMismatch(t *testing.T) {
	samples := checkpointTrainSamples(73, 24)

	src := buildLocalUpdateModel(t, 15, 0)
	opt := cnn.NewSGD(0.05, 0.9)
	src.FitParallel(samples, 1, 8, 1, opt, rng.New(5).Split("fit"))
	var ck bytes.Buffer
	if err := src.SaveTraining(&ck, opt, rng.New(5)); err != nil {
		t.Fatal(err)
	}

	shared, err := Build(testNet(16), wsn.NewGrid(6, 6, 1), StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shared.RestoreTraining(bytes.NewReader(ck.Bytes()), cnn.NewSGD(0.05, 0.9)); err == nil {
		t.Error("shared-weight model accepted a local-update checkpoint")
	} else if !strings.Contains(err.Error(), "local-update") {
		t.Errorf("mode-mismatch error %q does not mention local-update", err)
	}

	if _, err := src.RestoreTraining(bytes.NewReader([]byte("garbage")), opt); err == nil {
		t.Error("RestoreTraining accepted garbage bytes")
	}
}
