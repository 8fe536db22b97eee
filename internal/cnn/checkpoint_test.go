package cnn

import (
	"bytes"
	"encoding/gob"
	"math"
	"slices"
	"strings"
	"testing"

	"zeiot/internal/rng"
)

// checkpointSamples builds a deterministic dataset whose size (42) is not a
// multiple of the batch sizes used below, so the epoch-end partial batch is
// always exercised.
func checkpointSamples(seed uint64, n int) []Sample {
	s := rng.New(seed)
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{Input: randomInput(s, 1, 6, 6), Label: i % 3}
	}
	return out
}

// TestSaveTrainingRoundTripSGD pins the checkpoint round trip: training k
// epochs, checkpointing via SaveTraining, and training n more epochs on a
// network restored by RestoreTraining must be bit-identical to training k+n
// epochs uninterrupted.
// The pre-fix Save dropped the SGD velocity and the stream position, so the
// resumed run diverged on its first momentum update and first reshuffle.
func TestSaveTrainingRoundTripSGD(t *testing.T) {
	samples := checkpointSamples(11, 42)

	ref := buildTinyNet(7)
	refOpt := NewSGD(0.05, 0.9)
	refStream := rng.New(21).Split("fit")
	ref.FitParallel(samples, 2, 8, 1, refOpt, refStream)

	var buf bytes.Buffer
	if err := ref.SaveTraining(&buf, refOpt, refStream); err != nil {
		t.Fatal(err)
	}

	ref.FitParallel(samples, 3, 8, 1, refOpt, refStream) // uninterrupted continuation

	// A differently initialized network and optimizer: the weights and the
	// hyperparameters come from the checkpoint.
	net2, sgd2 := buildTinyNet(8), NewSGD(0, 0)
	streams, err := net2.RestoreTraining(bytes.NewReader(buf.Bytes()), sgd2)
	if err != nil {
		t.Fatal(err)
	}
	if sgd2.LR != refOpt.LR || sgd2.Momentum != refOpt.Momentum {
		t.Fatalf("restored SGD hyperparameters %v/%v, want %v/%v", sgd2.LR, sgd2.Momentum, refOpt.LR, refOpt.Momentum)
	}
	if len(streams) != 1 {
		t.Fatalf("RestoreTraining returned %d streams, want 1", len(streams))
	}
	net2.FitParallel(samples, 3, 8, 1, sgd2, streams[0]) // resumed continuation

	requireSameParams(t, ref, net2, "SGD resume after SaveTraining")
}

// TestSaveTrainingRoundTripAdam pins the same invariant for Adam, whose
// checkpoint additionally carries the step counter (bias correction) and
// both moment maps. A dropped step count would inflate the bias-corrected
// learning rate on the first resumed update.
func TestSaveTrainingRoundTripAdam(t *testing.T) {
	samples := checkpointSamples(13, 42)

	trainEpochs := func(n *Network, opt Optimizer, stream *rng.Stream, epochs, batch int) {
		tr := NewTrainer(n, opt, stream, samples, epochs, batch, 1)
		for !tr.Done() {
			tr.Step(1)
		}
	}

	ref := buildTinyNet(9)
	refOpt := NewAdam(0.002)
	refStream := rng.New(23).Split("fit")
	trainEpochs(ref, refOpt, refStream, 2, 8)

	var buf bytes.Buffer
	if err := ref.SaveTraining(&buf, refOpt, refStream); err != nil {
		t.Fatal(err)
	}
	stepAtSave := refOpt.StepCount()
	trainEpochs(ref, refOpt, refStream, 2, 8)

	net2, adam2 := buildTinyNet(10), NewAdam(0)
	streams, err := net2.RestoreTraining(bytes.NewReader(buf.Bytes()), adam2)
	if err != nil {
		t.Fatal(err)
	}
	if stepAtSave == 0 {
		t.Fatal("reference Adam had no steps at save time; test is vacuous")
	}
	if adam2.StepCount() != stepAtSave {
		t.Fatalf("restored Adam step count %d, saved at %d", adam2.StepCount(), stepAtSave)
	}
	trainEpochs(net2, adam2, streams[0], 2, 8)

	requireSameParams(t, ref, net2, "Adam resume after SaveTraining")
}

// TestTrainerMatchesFit checks that chunked training is FitParallel:
// irregular Step chunk sizes, serial or parallel, must land on the identical
// weights and final epoch loss as one FitParallel call.
func TestTrainerMatchesFit(t *testing.T) {
	samples := checkpointSamples(17, 42)
	const epochs, batch = 3, 8

	ref := buildTinyNet(5)
	refLoss := ref.FitParallel(samples, epochs, batch, 4, NewSGD(0.05, 0.9), rng.New(31).Split("fit"))

	for _, workers := range []int{1, 4} {
		net := buildTinyNet(5)
		tr := NewTrainer(net, NewSGD(0.05, 0.9), rng.New(31).Split("fit"), samples, epochs, batch, workers)
		chunks := []int{1, 3, 2, 5, 1, 7} // deliberately misaligned with epoch length (6 batches)
		for i := 0; !tr.Done(); i++ {
			tr.Step(chunks[i%len(chunks)])
		}
		requireSameParams(t, ref, net, "trainer vs FitParallel")
		if tr.LastLoss() != refLoss {
			t.Errorf("workers=%d: trainer final loss %v, FitParallel returned %v", workers, tr.LastLoss(), refLoss)
		}
		if tr.epoch != epochs {
			t.Errorf("workers=%d: trainer finished at epoch %d, want %d", workers, tr.epoch, epochs)
		}
		if want := epochs * 6; tr.BatchesRun() != want {
			t.Errorf("workers=%d: BatchesRun() = %d, want %d", workers, tr.BatchesRun(), want)
		}
	}
}

// TestTrainerSaveResumeBitIdentity kills a trainer mid-epoch at a
// batch boundary, resumes from the checkpoint — with a different worker
// count, as a crashed node restarting well may choose — and requires the
// finished weights, loss, and batch accounting to match the uninterrupted
// run.
func TestTrainerSaveResumeBitIdentity(t *testing.T) {
	samples := checkpointSamples(19, 42)
	const epochs, batch = 3, 8

	ref := buildTinyNet(3)
	refTr := NewTrainer(ref, NewSGD(0.05, 0.9), rng.New(37).Split("fit"), samples, epochs, batch, 1)
	for !refTr.Done() {
		refTr.Step(4)
	}

	for _, killAfter := range []int{1, 4, 6, 7, 11} { // mid-epoch, at epoch end, one into next epoch…
		net := buildTinyNet(3)
		tr := NewTrainer(net, NewSGD(0.05, 0.9), rng.New(37).Split("fit"), samples, epochs, batch, 4)
		for tr.BatchesRun() < killAfter && !tr.Done() {
			tr.Step(1)
		}
		var ck bytes.Buffer
		if err := tr.Save(&ck); err != nil {
			t.Fatalf("killAfter=%d: Save: %v", killAfter, err)
		}

		resumed, err := ResumeTrainer(bytes.NewReader(ck.Bytes()), samples, 1)
		if err != nil {
			t.Fatalf("killAfter=%d: ResumeTrainer: %v", killAfter, err)
		}
		if resumed.BatchesRun() != killAfter {
			t.Fatalf("killAfter=%d: resumed BatchesRun() = %d", killAfter, resumed.BatchesRun())
		}
		for !resumed.Done() {
			resumed.Step(3)
		}

		requireSameParams(t, ref, resumed.Net(), "resumed trainer")
		if resumed.LastLoss() != refTr.LastLoss() {
			t.Errorf("killAfter=%d: resumed loss %v, uninterrupted %v", killAfter, resumed.LastLoss(), refTr.LastLoss())
		}
		if resumed.BatchesRun() != refTr.BatchesRun() {
			t.Errorf("killAfter=%d: resumed BatchesRun() = %d, uninterrupted %d", killAfter, resumed.BatchesRun(), refTr.BatchesRun())
		}
	}
}

// TestResumeTrainerValidation covers the rejection paths: garbage bytes and
// a dataset whose size disagrees with the checkpoint.
func TestResumeTrainerValidation(t *testing.T) {
	if _, err := ResumeTrainer(bytes.NewReader([]byte("junk")), nil, 1); err == nil {
		t.Error("ResumeTrainer accepted garbage bytes")
	}

	samples := checkpointSamples(23, 42)
	net := buildTinyNet(2)
	tr := NewTrainer(net, NewSGD(0.05, 0.9), rng.New(41).Split("fit"), samples, 2, 8, 1)
	tr.Step(2)
	var ck bytes.Buffer
	if err := tr.Save(&ck); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeTrainer(bytes.NewReader(ck.Bytes()), samples[:30], 1); err == nil {
		t.Error("ResumeTrainer accepted a dataset of the wrong size")
	} else if !strings.Contains(err.Error(), "samples") {
		t.Errorf("wrong-size error %q does not mention samples", err)
	}
	// Samples the checkpoint's network cannot take must be an error naming
	// the first such sample, not a panic in the first Step.
	s := rng.New(24)
	bad := slices.Clone(samples)
	bad[15] = Sample{Input: randomInput(s, 1, 5, 7), Label: 0}
	bad[20] = Sample{Input: randomInput(s, 1, 5, 7), Label: 0}
	if _, err := ResumeTrainer(bytes.NewReader(ck.Bytes()), bad, 1); err == nil {
		t.Error("ResumeTrainer accepted 1×5×7 samples for a 1×6×6 network")
	} else if want := "sample 15 has shape [1 5 7], checkpoint network input is [1 6 6]"; !strings.Contains(err.Error(), want) {
		t.Errorf("wrong-shape error %q, want it to contain %q", err, want)
	}
	bad = slices.Clone(samples)
	bad[7].Label = 3
	if _, err := ResumeTrainer(bytes.NewReader(ck.Bytes()), bad, 1); err == nil {
		t.Error("ResumeTrainer accepted label 3 for a 3-class network")
	} else if want := "sample 7 has label 3"; !strings.Contains(err.Error(), want) {
		t.Errorf("bad-label error %q, want it to contain %q", err, want)
	}
	// A batch larger than the dataset is one partial batch per epoch, up to
	// the largest int, where counting the epoch's batches used to overflow
	// to zero and Step looped forever.
	huge := tamper(t, ck.Bytes(), func(c *trainerCheckpoint) { c.Trainer.Batch = math.MaxInt })
	if tr, err := ResumeTrainer(bytes.NewReader(huge), samples, 1); err != nil {
		t.Errorf("ResumeTrainer rejected batch %d: %v", math.MaxInt, err)
	} else if n := tr.Step(1); n != 1 {
		t.Errorf("Step(1) at batch %d ran %d batches, want 1", math.MaxInt, n)
	}
}

// tamper gob-decodes data into a T, applies mutate, and re-encodes it: a
// structurally valid gob whose content lies.
func tamper[T any](t *testing.T, data []byte, mutate func(*T)) []byte {
	t.Helper()
	v := new(T)
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		t.Fatal(err)
	}
	mutate(v)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsTamperedGeometry: a blob whose geometry fields disagree
// with its saved weights must be rejected with a descriptive error, not
// silently reinterpreted (or panicked on). Each tamper goes through both
// readers the program has: decodeBlob, behind RestoreTraining, and
// ResumeTrainer, whose checkpoint embeds the same blob.
func TestLoadRejectsTamperedGeometry(t *testing.T) {
	s := rng.New(43)
	// On a square input a 3×1 kernel's KH/KW swap keeps the flattened size,
	// so the swapped stack still chains and only the recorded parameter
	// shapes can tell.
	net := NewNetwork([]int{1, 6, 6},
		NewConv2D(1, 2, 3, 1, 1, 0, s.Split("conv")),
		NewReLU(),
		NewFlatten(),
		NewDense(2*4*6, 4, s.Split("d")), // 48×4: In/Out swap preserves flat size
	)
	var blob bytes.Buffer
	if err := net.SaveTraining(&blob, nil); err != nil {
		t.Fatal(err)
	}
	samples := checkpointSamples(47, 16)
	tr := NewTrainer(net, NewSGD(0.05, 0.9), rng.New(53).Split("fit"), samples, 1, 8, 1)
	tr.Step(1)
	var ck bytes.Buffer
	if err := tr.Save(&ck); err != nil {
		t.Fatal(err)
	}

	swapConv := func(b *netBlob) {
		b.Layers[0].KH, b.Layers[0].KW = b.Layers[0].KW, b.Layers[0].KH
	}
	cases := []struct {
		name   string
		mutate func(*netBlob)
		want   string
	}{
		{"conv KH/KW swapped", swapConv, "geometry fields disagree"},
		{"dense In/Out swapped", func(b *netBlob) {
			b.Layers[3].In, b.Layers[3].Out = b.Layers[3].Out, b.Layers[3].In
		}, "geometry fields disagree"},
		{"negative conv stride", func(b *netBlob) {
			b.Layers[0].Stride = -1
		}, "invalid conv geometry"},
		{"zero dense output", func(b *netBlob) {
			b.Layers[3].Out = 0
		}, "invalid dense geometry"},
		{"unknown layer kind", func(b *netBlob) {
			b.Layers[1].Kind = "transformer"
		}, "unknown layer kind"},
		{"truncated weights", func(b *netBlob) {
			b.Layers[0].Params[0] = b.Layers[0].Params[0][:5]
			b.Layers[0].ParamShapes[0] = []int{5}
		}, "size"},
		{"oversized dense", func(b *netBlob) {
			b.Layers[3].In, b.Layers[3].Out = 1<<13, 1<<13
		}, "limit"},
		{"future version", func(b *netBlob) {
			b.Version = blobVersion + 1
		}, "unsupported blob version"},
		// A blob without a version and without shape records, whose swap
		// would otherwise build a 1×3 conv from the 3×1 weights.
		{"v0 blob without shapes, conv KH/KW swapped", func(b *netBlob) {
			b.Version = 0
			for i := range b.Layers {
				b.Layers[i].ParamShapes = nil
			}
			swapConv(b)
		}, "unsupported blob version"},
		{"bad input shape", func(b *netBlob) {
			b.InShape = []int{1, -6, 6}
		}, "non-positive dimension"},
		{"2-D input shape", func(b *netBlob) {
			b.InShape = []int{6, 6}
		}, "unusable"},
		{"spatial output", func(b *netBlob) {
			b.Layers = b.Layers[:2]
		}, "want 1-D logits"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tamper(t, blob.Bytes(), tc.mutate)
			if _, _, err := decodeBlob(bytes.NewReader(data)); err == nil {
				t.Error("decodeBlob accepted the tampered blob")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("decodeBlob error %q does not contain %q", err, tc.want)
			}
			data = tamper(t, ck.Bytes(), func(c *trainerCheckpoint) { tc.mutate(c.Net) })
			if _, err := ResumeTrainer(bytes.NewReader(data), samples, 1); err == nil {
				t.Error("ResumeTrainer accepted the tampered checkpoint")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ResumeTrainer error %q does not contain %q", err, tc.want)
			}
		})
	}
}
