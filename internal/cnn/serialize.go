package cnn

import (
	"encoding/gob"
	"fmt"
	"io"

	"zeiot/internal/rng"
)

// blobVersion is the wire-format version, the only one the decoder accepts.
// A blob without a Version field (gob leaves it zero) is rejected: it has no
// per-parameter shape record to check the geometry fields against.
const blobVersion = 1

// maxBlobTensor bounds the element count of any single tensor a blob may
// describe (16M float64s = 128 MiB). Decoding validates sizes against this
// before any allocation, so a corrupted or adversarial blob cannot drive the
// loader into a huge allocation or an integer-overflowed geometry.
const maxBlobTensor = 1 << 24

// netBlob is the gob wire format of a network: layer specs plus parameter
// data, enough to rebuild an identical network without retraining, and
// optionally the training state (optimizer moments and rng stream
// positions) needed to *continue* training bit-identically.
type netBlob struct {
	InShape []int
	Layers  []layerBlob
	// Version is the wire-format version, blobVersion.
	Version int
	// Opt, when non-nil, carries the optimizer state captured by
	// SaveTraining.
	Opt *optBlob
	// Streams carries the positions of the rng streams passed to
	// SaveTraining, in argument order.
	Streams []rng.State
}

type layerBlob struct {
	Kind string
	// Conv fields.
	InC, OutC, KH, KW, Stride, Pad int
	// Pool fields.
	Size, PoolStride int
	// Dense fields.
	In, Out int
	// Params holds each parameter tensor's data in Params() order.
	Params [][]float64
	// ParamShapes records each parameter tensor's full shape. The decoder
	// rejects a blob whose recorded shapes disagree with the geometry
	// fields — the defense against a tampered blob whose swapped KH/KW or
	// edited Stride/Pad would otherwise reinterpret the same flat data as a
	// different network.
	ParamShapes [][]int
}

// optBlob is the serialized optimizer state: hyperparameters plus the
// per-parameter buffers in network Params() order (nil entries mean the
// optimizer had not touched that parameter yet).
type optBlob struct {
	Kind                string // "sgd" or "adam"
	LR, Momentum, Decay float64
	Beta1, Beta2, Eps   float64
	Step                int
	Vel                 [][]float64 // SGD momentum buffers
	M, V                [][]float64 // Adam moment estimates
}

// Optimizer steps a network's parameters over the gradients of one
// mini-batch; the Trainer calls it at every mini-batch boundary. SGD and
// Adam implement it, and SaveTraining serializes either.
type Optimizer interface {
	StepNetwork(n *Network, batch int)
}

// SaveTraining writes the network plus everything needed to resume training
// bit-identically: the optimizer's state (SGD momentum, or Adam moments and
// step count) and the positions of the given rng streams (typically the fit
// stream, so the resumed run replays the same shuffles). A nil opt writes
// the architecture and weights only. RestoreTraining is the inverse.
func (n *Network) SaveTraining(w io.Writer, opt Optimizer, streams ...*rng.Stream) error {
	blob, err := n.blob(opt)
	if err != nil {
		return err
	}
	for _, s := range streams {
		blob.Streams = append(blob.Streams, s.State())
	}
	return gob.NewEncoder(w).Encode(blob)
}

// blob builds the wire representation of n, including opt's state when
// non-nil.
func (n *Network) blob(opt Optimizer) (*netBlob, error) {
	blob := &netBlob{InShape: append([]int(nil), n.inShape...), Version: blobVersion}
	for _, l := range n.layers {
		var lb layerBlob
		switch v := l.(type) {
		case *Conv2D:
			lb = layerBlob{Kind: "conv", InC: v.InC, OutC: v.OutC, KH: v.KH, KW: v.KW, Stride: v.Stride, Pad: v.Pad}
		case *MaxPool2D:
			lb = layerBlob{Kind: "maxpool", Size: v.Size, PoolStride: v.Stride}
		case *AvgPool2D:
			lb = layerBlob{Kind: "avgpool", Size: v.Size, PoolStride: v.Stride}
		case *Dense:
			lb = layerBlob{Kind: "dense", In: v.In, Out: v.Out}
		case *ReLU:
			lb = layerBlob{Kind: "relu"}
		case *Flatten:
			lb = layerBlob{Kind: "flatten"}
		default:
			return nil, fmt.Errorf("cnn: cannot serialize layer %T", l)
		}
		if pl, ok := l.(ParamLayer); ok {
			for _, p := range pl.Params() {
				lb.Params = append(lb.Params, append([]float64(nil), p.Data()...))
				lb.ParamShapes = append(lb.ParamShapes, append([]int(nil), p.Shape()...))
			}
		}
		blob.Layers = append(blob.Layers, lb)
	}
	if opt != nil {
		params := n.paramTensors()
		switch o := opt.(type) {
		case *SGD:
			blob.Opt = &optBlob{
				Kind: "sgd", LR: o.LR, Momentum: o.Momentum, Decay: o.Decay,
				Vel: o.VelocitySnapshot(params),
			}
		case *Adam:
			m, v := o.MomentSnapshot(params)
			blob.Opt = &optBlob{
				Kind: "adam", LR: o.LR, Beta1: o.Beta1, Beta2: o.Beta2, Eps: o.Eps,
				Step: o.StepCount(), M: m, V: v,
			}
		default:
			return nil, fmt.Errorf("cnn: cannot serialize optimizer %T", opt)
		}
	}
	return blob, nil
}

// validateLayerBlob rejects impossible layer geometry before any constructor
// runs. The constructors panic on invalid geometry — correct for programming
// errors, wrong for untrusted input — so the decoder screens every field
// first and returns descriptive errors instead.
func validateLayerBlob(i int, lb layerBlob) error {
	switch lb.Kind {
	case "conv":
		if lb.InC <= 0 || lb.OutC <= 0 || lb.KH <= 0 || lb.KW <= 0 || lb.Stride <= 0 || lb.Pad < 0 {
			return fmt.Errorf("cnn: layer %d: invalid conv geometry (inC=%d outC=%d kh=%d kw=%d stride=%d pad=%d)",
				i, lb.InC, lb.OutC, lb.KH, lb.KW, lb.Stride, lb.Pad)
		}
		if n := int64(lb.InC) * int64(lb.OutC) * int64(lb.KH) * int64(lb.KW); n > maxBlobTensor {
			return fmt.Errorf("cnn: layer %d: conv kernel has %d weights (limit %d)", i, n, maxBlobTensor)
		}
	case "maxpool", "avgpool":
		if lb.Size <= 0 || lb.PoolStride <= 0 {
			return fmt.Errorf("cnn: layer %d: invalid pool geometry (size=%d stride=%d)", i, lb.Size, lb.PoolStride)
		}
	case "dense":
		if lb.In <= 0 || lb.Out <= 0 {
			return fmt.Errorf("cnn: layer %d: invalid dense geometry (in=%d out=%d)", i, lb.In, lb.Out)
		}
		if n := int64(lb.In) * int64(lb.Out); n > maxBlobTensor {
			return fmt.Errorf("cnn: layer %d: dense has %d weights (limit %d)", i, n, maxBlobTensor)
		}
	case "relu", "flatten":
	default:
		return fmt.Errorf("cnn: unknown layer kind %q at %d", lb.Kind, i)
	}
	return nil
}

// decodeBlob decodes and fully validates a netBlob, rebuilding the network.
// Geometry errors — including shape-propagation failures that would panic in
// the constructors — come back as errors, never panics, so the decoder is
// safe on untrusted bytes (FuzzLoad enforces this).
func decodeBlob(r io.Reader) (*Network, *netBlob, error) {
	blob := new(netBlob)
	if err := gob.NewDecoder(r).Decode(blob); err != nil {
		return nil, nil, fmt.Errorf("cnn: decoding network: %w", err)
	}
	n, err := decodeNetBlob(blob)
	return n, blob, err
}

// decodeNetBlob validates an already-gob-decoded blob and rebuilds the
// network; the trainer checkpoint format embeds a netBlob inside a larger
// gob value and enters here directly.
func decodeNetBlob(blob *netBlob) (n *Network, err error) {
	if blob.Version != blobVersion {
		return nil, fmt.Errorf("cnn: unsupported blob version %d (want %d)", blob.Version, blobVersion)
	}
	if len(blob.InShape) != 1 && len(blob.InShape) != 3 {
		return nil, fmt.Errorf("cnn: blob input shape %v is unusable", blob.InShape)
	}
	inSize := int64(1)
	for _, d := range blob.InShape {
		if d <= 0 {
			return nil, fmt.Errorf("cnn: blob input shape %v has a non-positive dimension", blob.InShape)
		}
		if inSize *= int64(d); inSize > maxBlobTensor {
			return nil, fmt.Errorf("cnn: blob input shape %v exceeds %d elements", blob.InShape, maxBlobTensor)
		}
	}
	for i, lb := range blob.Layers {
		if err := validateLayerBlob(i, lb); err != nil {
			return nil, err
		}
	}
	// The stack builds under a recover guard: per-field validation above
	// rules out the constructor panics, but shape propagation through
	// NewNetwork can still collapse (e.g. a pool larger than its input), and
	// that must surface as a decode error, not a crash.
	defer func() {
		if rec := recover(); rec != nil {
			n, err = nil, fmt.Errorf("cnn: blob describes an invalid network: %v", rec)
		}
	}()
	// Weights are overwritten below, so the init stream is irrelevant.
	stream := rng.New(0)
	var layers []Layer
	for i, lb := range blob.Layers {
		var l Layer
		switch lb.Kind {
		case "conv":
			l = NewConv2D(lb.InC, lb.OutC, lb.KH, lb.KW, lb.Stride, lb.Pad, stream)
		case "maxpool":
			l = NewMaxPool2D(lb.Size, lb.PoolStride)
		case "avgpool":
			l = NewAvgPool2D(lb.Size, lb.PoolStride)
		case "dense":
			l = NewDense(lb.In, lb.Out, stream)
		case "relu":
			l = NewReLU()
		case "flatten":
			l = NewFlatten()
		}
		if pl, ok := l.(ParamLayer); ok {
			params := pl.Params()
			if len(params) != len(lb.Params) {
				return nil, fmt.Errorf("cnn: layer %d has %d params, blob has %d", i, len(params), len(lb.Params))
			}
			if len(lb.ParamShapes) != len(params) {
				return nil, fmt.Errorf("cnn: layer %d has %d params, blob records %d shapes", i, len(params), len(lb.ParamShapes))
			}
			for pi, p := range params {
				if len(lb.Params[pi]) != p.Size() {
					return nil, fmt.Errorf("cnn: layer %d param %d size %d, blob has %d", i, pi, p.Size(), len(lb.Params[pi]))
				}
				if !shapesEqual(lb.ParamShapes[pi], p.Shape()) {
					return nil, fmt.Errorf("cnn: layer %d param %d shape %v, blob recorded %v (geometry fields disagree with the saved weights)",
						i, pi, p.Shape(), lb.ParamShapes[pi])
				}
				copy(p.Data(), lb.Params[pi])
			}
		}
		layers = append(layers, l)
	}
	return NewNetwork(blob.InShape, layers...), nil
}

func shapesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// restoreOptimizer rebuilds the optimizer from ob against the network's
// parameter tensors.
func restoreOptimizer(n *Network, ob *optBlob) (Optimizer, error) {
	params := n.paramTensors()
	switch ob.Kind {
	case "sgd":
		o := NewSGD(ob.LR, ob.Momentum)
		o.Decay = ob.Decay
		if err := o.RestoreVelocity(params, ob.Vel); err != nil {
			return nil, err
		}
		return o, nil
	case "adam":
		o := NewAdam(ob.LR)
		o.Beta1, o.Beta2, o.Eps = ob.Beta1, ob.Beta2, ob.Eps
		if err := o.SetStepCount(ob.Step); err != nil {
			return nil, err
		}
		if err := o.RestoreMoments(params, ob.M, ob.V); err != nil {
			return nil, err
		}
		return o, nil
	default:
		return nil, fmt.Errorf("cnn: unknown optimizer kind %q", ob.Kind)
	}
}

// RestoreTraining reads a blob written by SaveTraining *into* an existing
// network with the same architecture: parameter data is copied into n's own
// tensors (pointer identity preserved — conv replica tables and cached
// executors stay valid) and the optimizer state is rebuilt keyed to those
// tensors. It returns the restored streams. MicroDeep's checkpoint path uses
// this.
func (n *Network) RestoreTraining(r io.Reader, opt Optimizer) ([]*rng.Stream, error) {
	loaded, blob, err := decodeBlob(r)
	if err != nil {
		return nil, err
	}
	// Architecture must match exactly: same layer kinds, geometry, and
	// parameter shapes. Comparing the two blob-built stacks layer by layer
	// via their parameter tensors is sufficient — decodeBlob already proved
	// the loaded geometry self-consistent.
	lp, np := loaded.paramTensors(), n.paramTensors()
	if len(loaded.layers) != len(n.layers) || len(lp) != len(np) {
		return nil, fmt.Errorf("cnn: checkpoint network has %d layers/%d params, target has %d/%d",
			len(loaded.layers), len(lp), len(n.layers), len(np))
	}
	for i := range lp {
		if !shapesEqual(lp[i].Shape(), np[i].Shape()) {
			return nil, fmt.Errorf("cnn: checkpoint param %d shape %v, target has %v", i, lp[i].Shape(), np[i].Shape())
		}
	}
	for i := range lp {
		copy(np[i].Data(), lp[i].Data())
	}
	if blob.Opt != nil {
		if opt == nil {
			return nil, fmt.Errorf("cnn: checkpoint carries %s optimizer state but no optimizer was supplied", blob.Opt.Kind)
		}
		switch o := opt.(type) {
		case *SGD:
			if blob.Opt.Kind != "sgd" {
				return nil, fmt.Errorf("cnn: checkpoint has %s state, optimizer is SGD", blob.Opt.Kind)
			}
			o.LR, o.Momentum, o.Decay = blob.Opt.LR, blob.Opt.Momentum, blob.Opt.Decay
			if err := o.RestoreVelocity(np, blob.Opt.Vel); err != nil {
				return nil, err
			}
		case *Adam:
			if blob.Opt.Kind != "adam" {
				return nil, fmt.Errorf("cnn: checkpoint has %s state, optimizer is Adam", blob.Opt.Kind)
			}
			o.LR, o.Beta1, o.Beta2, o.Eps = blob.Opt.LR, blob.Opt.Beta1, blob.Opt.Beta2, blob.Opt.Eps
			if err := o.SetStepCount(blob.Opt.Step); err != nil {
				return nil, err
			}
			if err := o.RestoreMoments(np, blob.Opt.M, blob.Opt.V); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("cnn: cannot restore into optimizer %T", opt)
		}
	}
	streams := make([]*rng.Stream, len(blob.Streams))
	for i, st := range blob.Streams {
		streams[i] = rng.FromState(st)
	}
	return streams, nil
}
