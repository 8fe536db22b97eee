// Package modality is the unified dataset abstraction over every sensing
// generator in the repo. The paper's premise is one distributed zero-energy
// substrate recognizing many contexts — falls, thermal discomfort, indoor
// position, movement direction, athlete activity, animal intrusion, vital
// signs, workout motion — yet each context historically shipped its own
// generator with its own return type and seeding convention. A Source wraps
// one such generator behind a single contract: a Spec describing the tensor
// shape and label set, and Generate producing labelled cnn.Samples from a
// caller-owned rng stream. Sources register themselves in a central registry
// (Names/New) so cross-modal tooling — the E18 benchmark matrix, the Fuse
// combinator — can enumerate every context the substrate recognizes without
// importing each generator package.
//
// Adapters also keep "campaign" entry points reproducing the historical
// experiment datasets byte-for-byte (same rng draws in the same order), so
// the e*.go files route through this package without moving a single output
// byte.
package modality

import (
	"fmt"

	"zeiot/internal/cnn"
	"zeiot/internal/ml"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// Spec describes one modality's data contract.
type Spec struct {
	// Name is the registry key ("gait", "har", "gait+vitals", ...).
	Name string
	// Shape is the per-sample tensor shape.
	Shape []int
	// Classes is the label count; ClassNames[i] names label i.
	Classes    int
	ClassNames []string
}

// NumElements returns the flattened per-sample size.
func (s Spec) NumElements() int {
	n := 1
	for _, d := range s.Shape {
		n *= d
	}
	return n
}

// Source is one registered sensing modality.
type Source interface {
	// Spec describes the samples Generate produces.
	Spec() Spec
	// Generate produces n labelled samples, class-balanced (round-robin
	// over labels before a final shuffle), drawing every variate from
	// stream. Same stream state ⇒ byte-identical samples.
	Generate(n int, stream *rng.Stream) ([]cnn.Sample, error)
}

// ClassConditional is a Source that can render a single sample of a chosen
// class — the contract Fuse needs to align two modalities on one event
// timeline, and what generateBalanced builds Generate from.
type ClassConditional interface {
	Source
	// GenerateClass renders one sample of the given class from stream.
	GenerateClass(class int, stream *rng.Stream) (*tensor.Tensor, error)
}

// generateBalanced is the shared Generate implementation for
// class-conditional sources: classes round-robin over the first n indices,
// each sample draws from its own named split (so sample i is independent of
// how many samples precede it), and the assembled set is shuffled from the
// parent stream.
func generateBalanced(src ClassConditional, n int, stream *rng.Stream) ([]cnn.Sample, error) {
	spec := src.Spec()
	if n < 0 {
		return nil, fmt.Errorf("modality: %s: negative sample count %d", spec.Name, n)
	}
	if spec.Classes < 1 {
		return nil, fmt.Errorf("modality: %s: spec has %d classes", spec.Name, spec.Classes)
	}
	out := make([]cnn.Sample, 0, n)
	for i := 0; i < n; i++ {
		class := i % spec.Classes
		in, err := src.GenerateClass(class, stream.Split(fmt.Sprintf("s-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("modality: %s sample %d: %w", spec.Name, i, err)
		}
		out = append(out, cnn.Sample{Input: in, Label: class})
	}
	stream.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// FromDataset converts a labelled feature matrix into 1-D CNN samples.
// Feature rows are copied, so the samples own their data.
func FromDataset(d ml.Dataset) []cnn.Sample {
	out := make([]cnn.Sample, d.Len())
	for i, x := range d.X {
		out[i] = cnn.Sample{
			Input: tensor.FromSlice(append([]float64(nil), x...), len(x)),
			Label: d.Y[i],
		}
	}
	return out
}
