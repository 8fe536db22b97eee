package cnn

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"zeiot/internal/rng"
)

// trainerBlob is the gob wire format of the training cursor.
type trainerBlob struct {
	Version    int
	Epochs     int
	Batch      int
	NSamples   int
	Epoch      int
	Cursor     int
	Started    bool // whether the current epoch's shuffle has been drawn
	LossSum    float64
	LossCount  int
	LastLoss   float64
	Batches    int
	EpochStart rng.State
}

// trainerCheckpoint bundles the cursor with the network/optimizer/stream
// blob in one gob value so one encoder/decoder pair handles the file.
type trainerCheckpoint struct {
	Version int
	Trainer trainerBlob
	Net     *netBlob
}

// Save checkpoints the trainer: network weights, optimizer state, stream
// position, and the epoch/sample cursor. The sample data itself is not
// serialized — datasets are regenerated deterministically from their seed —
// so ResumeTrainer takes the samples as an argument and validates the count.
func (t *Trainer) Save(w io.Writer) error {
	if t.perm != nil && t.cursor%t.batch != 0 && t.cursor != len(t.perm) {
		return fmt.Errorf("cnn: trainer cursor %d not at a batch boundary", t.cursor)
	}
	nb, err := t.net.blob(t.opt)
	if err != nil {
		return err
	}
	nb.Streams = []rng.State{t.stream.State()}
	ck := trainerCheckpoint{
		Version: blobVersion,
		Trainer: trainerBlob{
			Version: blobVersion, Epochs: t.epochs, Batch: t.batch, NSamples: len(t.samples),
			Epoch: t.epoch, Cursor: t.cursor, Started: t.perm != nil,
			LossSum: t.lossSum, LossCount: t.lossCount, LastLoss: t.lastLoss,
			Batches: t.batches, EpochStart: t.epochStart,
		},
		Net: nb,
	}
	return gob.NewEncoder(w).Encode(ck)
}

// ResumeTrainer rebuilds a trainer from a checkpoint written by Save. The
// caller supplies the (deterministically regenerated) samples and the worker
// count — worker count never changes results, so a run may resume with a
// different one. Continuing the returned trainer to completion yields
// weights bit-identical to the uninterrupted run. Samples whose count, shape
// or label does not fit the checkpoint's network are an error, not a panic
// in the first Step.
func ResumeTrainer(r io.Reader, samples []Sample, workers int) (*Trainer, error) {
	var ck trainerCheckpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("cnn: decoding trainer checkpoint: %w", err)
	}
	tb := ck.Trainer
	if tb.Version < 1 || tb.Version > blobVersion {
		return nil, fmt.Errorf("cnn: unsupported trainer checkpoint version %d", tb.Version)
	}
	if tb.NSamples != len(samples) {
		return nil, fmt.Errorf("cnn: checkpoint trained on %d samples, caller supplied %d", tb.NSamples, len(samples))
	}
	if tb.Batch <= 0 || tb.Epochs < 0 || tb.Epoch < 0 || tb.Cursor < 0 || tb.Cursor > tb.NSamples {
		return nil, fmt.Errorf("cnn: trainer checkpoint cursor out of range (epoch=%d cursor=%d batch=%d)", tb.Epoch, tb.Cursor, tb.Batch)
	}
	if ck.Net == nil {
		return nil, fmt.Errorf("cnn: trainer checkpoint has no network blob")
	}
	net, err := decodeNetBlob(ck.Net)
	if err != nil {
		return nil, err
	}
	nclass := net.OutShape()[0]
	for i, s := range samples {
		if !slices.Equal(s.Input.Shape(), net.inShape) {
			return nil, fmt.Errorf("cnn: sample %d has shape %v, checkpoint network input is %v", i, s.Input.Shape(), net.inShape)
		}
		if s.Label < 0 || s.Label >= nclass {
			return nil, fmt.Errorf("cnn: sample %d has label %d, checkpoint network has %d classes", i, s.Label, nclass)
		}
	}
	if ck.Net.Opt == nil || len(ck.Net.Streams) != 1 {
		return nil, fmt.Errorf("cnn: trainer checkpoint missing optimizer or stream state")
	}
	opt, err := restoreOptimizer(net, ck.Net.Opt)
	if err != nil {
		return nil, err
	}
	t := &Trainer{
		net: net, opt: opt, stream: rng.FromState(ck.Net.Streams[0]), samples: samples,
		epochs: tb.Epochs, batch: tb.Batch, workers: workers,
		epoch: tb.Epoch, cursor: tb.Cursor,
		lossSum: tb.LossSum, lossCount: tb.LossCount, lastLoss: tb.LastLoss,
		batches: tb.Batches, epochStart: tb.EpochStart,
	}
	if tb.Started {
		// Recompute the in-flight epoch's shuffle from the stream position
		// recorded at epoch start; the main stream already sits after the
		// draw, so this replays no state.
		t.perm = rng.FromState(tb.EpochStart).Perm(len(samples))
		if tb.Cursor > len(t.perm) {
			return nil, fmt.Errorf("cnn: trainer checkpoint cursor %d beyond epoch length %d", tb.Cursor, len(t.perm))
		}
	}
	return t, nil
}
