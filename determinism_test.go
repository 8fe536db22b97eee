package zeiot_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"zeiot"
	"zeiot/internal/cnn"
	"zeiot/internal/dataset"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// loungeSamples generates a small slice of the e2 lounge dataset for
// training-path tests.
func loungeSamples(t *testing.T, n int) []cnn.Sample {
	t.Helper()
	cfg := dataset.DefaultLoungeConfig()
	cfg.Seed = 7
	cfg.Samples = n
	samples, err := dataset.GenerateLoungeFrom(cfg, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestTrainEpochParallelBitIdentical trains the e2 CNN for two epochs with
// one and with several training workers at the same seed and requires the
// final weights to be bit-identical at every worker count. The workers shard
// block forwards but gradients reduce in sample order, so any drift here is
// a real reordering bug, not float noise — hence tol 0. A batch of 40 is 5
// blocks, so every worker count below splits it differently.
func TestTrainEpochParallelBitIdentical(t *testing.T) {
	samples := loungeSamples(t, 96)
	const epochs, batch = 2, 40

	ref := benchNet2(1)
	ref.FitParallel(samples, epochs, batch, 1, cnn.NewSGD(0.02, 0.9), rng.New(3).Split("fit"))

	for _, workers := range []int{2, 3, 5, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			par := benchNet2(1)
			par.FitParallel(samples, epochs, batch, workers, cnn.NewSGD(0.02, 0.9), rng.New(3).Split("fit"))
			assertSameParams(t, ref, par)
		})
	}
}

// benchNet2 builds the e2 lounge topology from a seed (weights only; no
// input tensor, unlike benchNet).
func benchNet2(seed uint64) *cnn.Network {
	s := rng.New(seed)
	return cnn.NewNetwork([]int{1, 17, 25},
		cnn.NewConv2D(1, 4, 3, 3, 1, 1, s.Split("c")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(3, 3),
		cnn.NewFlatten(),
		cnn.NewDense(4*5*8, 16, s.Split("d1")),
		cnn.NewReLU(),
		cnn.NewDense(16, 2, s.Split("d2")),
	)
}

func assertSameParams(t *testing.T, a, b *cnn.Network) {
	t.Helper()
	la, lb := a.Layers(), b.Layers()
	if len(la) != len(lb) {
		t.Fatalf("layer count %d vs %d", len(la), len(lb))
	}
	for i := range la {
		pa, ok := la[i].(cnn.ParamLayer)
		if !ok {
			continue
		}
		pb := lb[i].(cnn.ParamLayer)
		ta, tb := pa.Params(), pb.Params()
		for j := range ta {
			if !tensor.Equal(ta[j], tb[j], 0) {
				t.Errorf("layer %d (%s) param %d differs from sequential result", i, la[i].Name(), j)
			}
		}
	}
}

// TestE8LossSweepDeterministic runs e8 with its loss sweep twice at the
// same seed — once serially, once with four workers — and requires the
// serial run to emit testdata/e8_loss_seed1.golden.json byte for byte and
// the two Summary maps to match exactly. Parallel training is bit-identical to
// serial; the dead-node sweep scores its failure patterns side by side,
// each on its own executor, and sums their accuracies in pattern order; and
// the loss sweep's delivery outcomes come from per-link rng substreams
// seeded only by (experiment seed, drop rate, link) on one serial executor.
// So the worker count must not move a single number, and under -race the
// concurrent failure patterns must share no mutable state.
func TestE8LossSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the lounge CNN twice")
	}
	lc := zeiot.DefaultLossConfig()
	lc.Enabled = true
	base := &zeiot.RunConfig{Seed: 1, Loss: lc}
	serial := base.Clone()
	serial.TrainWorkers = 1
	par := base.Clone()
	par.TrainWorkers = 4

	a, err := zeiot.RunE8Resilience(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := zeiot.RunE8Resilience(context.Background(), par)
	if err != nil {
		t.Fatal(err)
	}
	// The golden pins every acc_loss_*/cost_loss_* row: the worker
	// comparison alone would pass a change that moved them all alike.
	want, err := os.ReadFile(filepath.Join("testdata", "e8_loss_seed1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cliJSON(t, a), want) {
		t.Error("e8 with -loss diverged from e8_loss_seed1.golden.json;\nregenerate with: go run ./cmd/zeiotbench -e e8 -seed 1 -loss 0.1 -json > testdata/e8_loss_seed1.golden.json")
	}
	if len(a.Summary) != len(b.Summary) {
		t.Fatalf("summary sizes differ: %d vs %d", len(a.Summary), len(b.Summary))
	}
	for k, va := range a.Summary {
		vb, ok := b.Summary[k]
		if !ok {
			t.Fatalf("summary key %q missing from the 4-worker run", k)
		}
		if va != vb {
			t.Errorf("summary[%q] differs: serial %v, 4 workers %v", k, va, vb)
		}
	}
	// The sweep actually ran and retries bought accuracy at some rate.
	for _, k := range []string{"acc_loss_30_retry", "acc_loss_30_noretry", "cost_loss_30_retry"} {
		if _, ok := a.Summary[k]; !ok {
			t.Fatalf("loss sweep did not produce summary key %q", k)
		}
	}
	if a.Summary["cost_loss_30_retry"] <= a.Summary["cost_loss_30_noretry"] {
		t.Error("retries at 30% loss did not increase the charged comm cost")
	}
}
