package microdeep

import (
	"bytes"
	"testing"

	"zeiot/internal/cnn"
	"zeiot/internal/rng"
	"zeiot/internal/wsn"
)

// FuzzRestoreTraining feeds arbitrary bytes to Model.RestoreTraining, the
// MicroDeep checkpoint loader. No input may panic, and every blob it
// accepts must leave a model that runs a distributed forward pass and a
// training step.
func FuzzRestoreTraining(f *testing.F) {
	samples := checkpointTrainSamples(81, 8)
	fresh := func(t testing.TB) *Model {
		m, err := Build(testNet(14), wsn.NewGrid(4, 4, 1), StrategyBalanced)
		if err != nil {
			t.Fatal(err)
		}
		m.EnableLocalUpdate()
		return m
	}
	// A local-update blob mid-training (replicas, momentum, gossip phase
	// and a stream position), then truncations and byte flips of it.
	m := fresh(f)
	m.SetGossip(2)
	opt := cnn.NewSGD(0.05, 0.9)
	m.FitParallel(samples, 1, 4, 1, opt, rng.New(5).Split("fit"))
	var buf bytes.Buffer
	if err := m.SaveTraining(&buf, opt, rng.New(5)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	for _, at := range []int{len(valid) / 7, len(valid) / 3, len(valid) / 2, 4 * len(valid) / 5, len(valid) - 3} {
		flipped := append([]byte(nil), valid...)
		flipped[at] ^= 0xff
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fresh(t)
		opt := cnn.NewSGD(0.05, 0.9)
		if _, err := m.RestoreTraining(bytes.NewReader(data), opt); err != nil {
			return
		}
		if _, err := m.ForwardDistributed(samples[0].Input); err != nil {
			t.Fatalf("accepted checkpoint leaves a model whose distributed forward fails: %v", err)
		}
		m.FitParallel(samples, 1, len(samples), 1, opt, rng.New(9))
	})
}
