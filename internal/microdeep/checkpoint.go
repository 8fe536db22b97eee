package microdeep

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"zeiot/internal/cnn"
	"zeiot/internal/rng"
)

// modelBlob is the gob wire format of a MicroDeep training checkpoint. The
// underlying CNN (weights, optimizer state for the shared parameters, rng
// stream positions) rides along as an embedded cnn training blob; the
// MicroDeep-specific state is the local-update machinery — per-position conv
// kernel replicas, their momentum buffers, and the gossip step counter whose
// phase decides when the next neighbour-averaging round fires.
type modelBlob struct {
	Version     int
	Net         []byte
	LocalUpdate bool
	GossipEvery int
	StepCount   int
	Replicas    []replicaBlob
}

// replicaBlob captures one conv stage's per-position kernels plus their SGD
// velocity buffers (nil entries: the kernel was never stepped).
type replicaBlob struct {
	Stage   int
	W       int
	Kernels [][]float64
	Vel     [][]float64
}

const modelBlobVersion = 1

// SaveTraining checkpoints the model mid-training: the CNN's weights and
// the optimizer state for its shared parameters, every local-update kernel
// replica with its momentum, the gossip cadence and step phase, and the
// positions of the given rng streams. RestoreTraining into an identically
// built model resumes bit-identically — including firing the next gossip
// round on the same optimizer step as the uninterrupted run.
func (m *Model) SaveTraining(w io.Writer, opt *cnn.SGD, streams ...*rng.Stream) error {
	var nb bytes.Buffer
	if err := m.Net.SaveTraining(&nb, opt, streams...); err != nil {
		return err
	}
	blob := modelBlob{
		Version:     modelBlobVersion,
		Net:         nb.Bytes(),
		LocalUpdate: m.localUpdate,
		GossipEvery: m.gossipEvery,
		StepCount:   m.stepCount,
	}
	for _, r := range m.replicas {
		rb := replicaBlob{Stage: r.stage, W: r.w, Vel: opt.VelocitySnapshot(r.kernels)}
		for _, k := range r.kernels {
			rb.Kernels = append(rb.Kernels, append([]float64(nil), k.Data()...))
		}
		blob.Replicas = append(blob.Replicas, rb)
	}
	return gob.NewEncoder(w).Encode(blob)
}

// RestoreTraining loads a checkpoint written by SaveTraining into this model,
// which must have been built the same way (same network architecture, same
// WSN/assignment, EnableLocalUpdate called iff it was on the saved model).
// Kernel data is copied into the model's existing replica tensors — pointer
// identity is preserved, so the conv replica tables and any cached distributed
// executor stay valid — and opt receives the saved momentum for both shared
// parameters and replicas. It returns streams positioned exactly where the
// saved ones were.
func (m *Model) RestoreTraining(r io.Reader, opt *cnn.SGD) ([]*rng.Stream, error) {
	var blob modelBlob
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("microdeep: decoding checkpoint: %w", err)
	}
	if blob.Version < 1 || blob.Version > modelBlobVersion {
		return nil, fmt.Errorf("microdeep: unsupported checkpoint version %d", blob.Version)
	}
	if blob.LocalUpdate != m.localUpdate {
		return nil, fmt.Errorf("microdeep: checkpoint local-update mode %v, model has %v", blob.LocalUpdate, m.localUpdate)
	}
	if blob.StepCount < 0 || blob.GossipEvery < 0 {
		return nil, fmt.Errorf("microdeep: checkpoint has negative step count %d or gossip cadence %d", blob.StepCount, blob.GossipEvery)
	}
	if len(blob.Replicas) != len(m.replicas) {
		return nil, fmt.Errorf("microdeep: checkpoint has %d replica stages, model has %d", len(blob.Replicas), len(m.replicas))
	}
	streams, err := m.Net.RestoreTraining(bytes.NewReader(blob.Net), opt)
	if err != nil {
		return nil, err
	}
	for i, rb := range blob.Replicas {
		rep := m.replicas[i]
		if rb.Stage != rep.stage || rb.W != rep.w || len(rb.Kernels) != len(rep.kernels) {
			return nil, fmt.Errorf("microdeep: replica stage %d mismatch (stage %d/%d, w %d/%d, kernels %d/%d)",
				i, rb.Stage, rep.stage, rb.W, rep.w, len(rb.Kernels), len(rep.kernels))
		}
		for p, kd := range rb.Kernels {
			if len(kd) != rep.kernels[p].Size() {
				return nil, fmt.Errorf("microdeep: replica stage %d kernel %d has %d elements, model has %d",
					i, p, len(kd), rep.kernels[p].Size())
			}
			copy(rep.kernels[p].Data(), kd)
		}
		if err := opt.RestoreVelocity(rep.kernels, rb.Vel); err != nil {
			return nil, err
		}
	}
	m.gossipEvery = blob.GossipEvery
	m.stepCount = blob.StepCount
	return streams, nil
}
