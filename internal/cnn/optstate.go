package cnn

import (
	"fmt"

	"zeiot/internal/tensor"
)

// SGD's momentum is keyed by parameter-tensor pointer, so it cannot be
// serialized directly: a checkpoint names parameters positionally instead.
// The accessors here snapshot and restore it against an ordered parameter
// list — the network's Params() order for whole-network checkpoints, a
// replica kernel list for MicroDeep's local-update mode. A nil slice in a
// snapshot means "no state yet" (the optimizer lazily creates buffers on
// first step), which restores to exactly that: absent state, so a resumed
// run's first step behaves like the uninterrupted run's next step.

// paramTensors returns the network's parameter tensors in layer order — the
// canonical positional order the serialized formats use.
func (n *Network) paramTensors() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range n.layers {
		if pl, ok := l.(ParamLayer); ok {
			out = append(out, pl.Params()...)
		}
	}
	return out
}

// VelocitySnapshot returns a copy of the momentum buffers for params, in
// order. Entries without accumulated state (the parameter was never stepped)
// are nil.
func (s *SGD) VelocitySnapshot(params []*tensor.Tensor) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		if v, ok := s.velocity[p]; ok {
			out[i] = append([]float64(nil), v.Data()...)
		}
	}
	return out
}

// RestoreVelocity installs a snapshot taken with VelocitySnapshot against
// params (same order). Nil entries clear any existing state for that
// parameter.
func (s *SGD) RestoreVelocity(params []*tensor.Tensor, vel [][]float64) error {
	if len(vel) != len(params) {
		return fmt.Errorf("cnn: velocity snapshot has %d entries for %d params", len(vel), len(params))
	}
	for i, p := range params {
		if vel[i] == nil {
			delete(s.velocity, p)
			continue
		}
		if len(vel[i]) != p.Size() {
			return fmt.Errorf("cnn: velocity %d has %d elements, param has %d", i, len(vel[i]), p.Size())
		}
		v, ok := s.velocity[p]
		if !ok {
			v = tensor.New(p.Shape()...)
			s.velocity[p] = v
		}
		copy(v.Data(), vel[i])
	}
	return nil
}
