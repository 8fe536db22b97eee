package zeiot

import (
	"context"
	"fmt"
	"math"
	"strings"

	"zeiot/internal/cnn"
	"zeiot/internal/modality"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// e18SamplesPerModality is the default per-modality dataset size (3/4
// train, 1/4 test); RunConfig.SampleScale moves it.
const e18SamplesPerModality = 240

// e18Epochs is the training budget each matrix cell gets. One CNN family,
// one budget, every modality — the matrix compares contexts, not tunings.
const e18Epochs = 8

// Deterministic inference-cost model for the matrix's latency and energy
// columns. Wall time is nondeterministic, so both derive from the exact MAC
// count of a forward pass: an MSP430-class harvested MCU sustains ~2 MMAC/s
// (e18MACRateHz) at ~0.5 nJ/MAC (e18NanojoulePerMAC), and acquiring one
// input element over the backscatter sensing chain costs ~10 nJ
// (e18NanojoulePerInput) — the same order as the per-scalar radio charges
// of internal/wsn.
const (
	e18MACRateHz         = 2e6
	e18NanojoulePerMAC   = 0.5
	e18NanojoulePerInput = 10.0
)

// e18Net builds the matrix's shared CNN family for one modality: image-like
// shapes (3-D with pool-able spatial dims) get the conv+pool+2-dense family
// every CNN experiment in the repo uses; feature vectors get a 3-layer
// dense net of the e13 quant-ablation scale.
func e18Net(spec modality.Spec, stream *rng.Stream) *cnn.Network {
	shape := spec.Shape
	if len(shape) == 3 && shape[1] >= 4 && shape[2] >= 4 {
		conv := cnn.NewConv2D(shape[0], 6, 3, 3, 1, 1, stream.Split("c1"))
		pool := cnn.NewMaxPool2D(2, 2)
		pooled := pool.OutShape(conv.OutShape(shape))
		flat := pooled[0] * pooled[1] * pooled[2]
		return cnn.NewNetwork(shape,
			conv,
			cnn.NewReLU(),
			pool,
			cnn.NewFlatten(),
			cnn.NewDense(flat, 24, stream.Split("d1")),
			cnn.NewReLU(),
			cnn.NewDense(24, spec.Classes, stream.Split("d2")),
		)
	}
	in := spec.NumElements()
	return cnn.NewNetwork([]int{in},
		cnn.NewDense(in, 32, stream.Split("d1")),
		cnn.NewReLU(),
		cnn.NewDense(32, 24, stream.Split("d2")),
		cnn.NewReLU(),
		cnn.NewDense(24, spec.Classes, stream.Split("d3")),
	)
}

// opsPerInference counts the multiply-accumulates of one forward pass by
// walking the layer graph with shape tracking. Pooling and activations are
// comparisons, not MACs, and are not counted.
func opsPerInference(net *cnn.Network) int {
	shape := net.InShape()
	ops := 0
	for _, layer := range net.Layers() {
		switch l := layer.(type) {
		case *cnn.Conv2D:
			out := l.OutShape(shape)
			ops += out[0] * out[1] * out[2] * l.InC * l.KH * l.KW
		case *cnn.Dense:
			ops += l.In * l.Out
		}
		shape = layer.OutShape(shape)
	}
	return ops
}

// e18Standardize maps train and test to per-feature zero mean / unit
// variance using statistics fitted on train only — the one preprocessing
// step the matrix shares across modalities, since raw feature scales span
// four orders of magnitude (chatter rates ~0.1, beamforming angles ~π,
// distance deltas ~80 cm). Fully deterministic: no rng draws, and the
// returned samples own fresh tensors.
func e18Standardize(spec modality.Spec, train, test []cnn.Sample) (strain, stest []cnn.Sample) {
	n := spec.NumElements()
	mean := make([]float64, n)
	for _, s := range train {
		for i, v := range s.Input.Data() {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(len(train))
	}
	std := make([]float64, n)
	for _, s := range train {
		for i, v := range s.Input.Data() {
			d := v - mean[i]
			std[i] += d * d
		}
	}
	for i := range std {
		std[i] = math.Sqrt(std[i]/float64(len(train))) + 1e-9
	}
	apply := func(in []cnn.Sample) []cnn.Sample {
		out := make([]cnn.Sample, len(in))
		for j, s := range in {
			data := make([]float64, n)
			for i, v := range s.Input.Data() {
				data[i] = (v - mean[i]) / std[i]
			}
			out[j] = cnn.Sample{Input: tensor.FromSlice(data, spec.Shape...), Label: s.Label}
		}
		return out
	}
	return apply(train), apply(test)
}

// e18ModalityNames resolves the matrix's row set: RunConfig.Modalities when
// given (already validated against the registry), else every registered
// modality in registration order.
func e18ModalityNames(cfg *RunConfig) []string {
	if len(cfg.Modalities) > 0 {
		return cfg.Modalities
	}
	return modality.Names()
}

// RunE18CrossModal trains the same CNN family across every registered
// sensing modality — the benchmark matrix the paper's one-substrate vision
// implies: falls, thermal discomfort, indoor position, movement direction,
// athlete activity, animal intrusion, vitals, workout motion, plus the
// gait+vitals fused pair. Each matrix row reports accuracy and the
// deterministic per-inference cost (MACs, latency and energy on a harvested
// µW budget). Per-modality rng streams are derived by name, so the
// -modalities filter changes which rows appear, never the values of the
// rows that remain.
func RunE18CrossModal(ctx context.Context, rc *RunConfig) (*Result, error) {
	h, err := beginRun(ctx, rc)
	if err != nil {
		return nil, err
	}
	names := e18ModalityNames(h.cfg)
	n := h.cfg.scaled(e18SamplesPerModality)

	res := &Result{
		ID:         "e18",
		Title:      "Cross-modal benchmark matrix: one CNN family, every modality",
		PaperClaim: "one distributed zero-energy substrate recognizes many contexts (§III.C) — measured as a matrix here",
		Header:     []string{"modality", "classes", "shape", "accuracy", "kMAC/inf", "latency", "energy/inf"},
		Summary:    map[string]float64{},
		Notes: fmt.Sprintf("%d samples/modality (3/4 train, train-fitted standardization), %d epochs, SGD(0.02, 0.9); cost model: %.1f nJ/MAC + %.0f nJ/input element at %.1f MMAC/s",
			n, e18Epochs, e18NanojoulePerMAC, e18NanojoulePerInput, e18MACRateHz/1e6),
	}

	fused := 0
	for _, name := range names {
		if err := h.ctx.Err(); err != nil {
			return nil, err
		}
		src, err := modality.New(name)
		if err != nil {
			return nil, err
		}
		spec := src.Spec()
		if strings.Contains(name, "+") {
			fused++
		}
		// Split advances its parent, so deriving all rows from one shared
		// root would make each row's stream depend on which rows precede
		// it. A fresh seed-rooted parent per row makes the stream a pure
		// function of (seed, modality name) — the filter-invariance
		// contract above.
		s := rng.New(h.cfg.Seed).Split("mod-" + name)
		samples, err := src.Generate(n, s.Split("data"))
		if err != nil {
			return nil, err
		}
		cut := len(samples) * 3 / 4
		train, test := e18Standardize(spec, samples[:cut], samples[cut:])
		h.mark(StageDataset)

		key := sanitizeKey(name)
		net := e18Net(spec, s.Split("net"))
		net.SetRecorder(h.cfg.Recorder, "e18_"+key+"_", test)
		net.FitParallel(train, e18Epochs, 16, h.cfg.workers(), cnn.NewSGD(0.02, 0.9), s.Split("fit"))
		h.mark(StageTrain)
		acc := net.Evaluate(test)

		ops := opsPerInference(net)
		latencyMS := float64(ops) / e18MACRateHz * 1e3
		energyUJ := (float64(ops)*e18NanojoulePerMAC + float64(spec.NumElements())*e18NanojoulePerInput) / 1e3

		res.Rows = append(res.Rows, []string{
			name,
			fi(spec.Classes),
			shapeString(spec.Shape),
			pct(acc),
			f1(float64(ops) / 1e3),
			fmt.Sprintf("%.1f ms", latencyMS),
			fmt.Sprintf("%.1f uJ", energyUJ),
		})
		res.Summary["acc_"+key] = acc
		res.Summary["ops_"+key] = float64(ops)
		res.Summary["latency_ms_"+key] = latencyMS
		res.Summary["energy_uj_"+key] = energyUJ
		if rec := h.cfg.Recorder; rec != nil {
			rec.Gauge("e18_"+key+"_accuracy", acc)
			rec.Gauge("e18_"+key+"_ops_per_inference", float64(ops))
			rec.Gauge("e18_"+key+"_energy_uj", energyUJ)
		}
		h.mark(StageEval)
	}
	res.Summary["modalities"] = float64(len(names))
	res.Summary["fused_pairs"] = float64(fused)
	return h.finish(res), nil
}

// shapeString renders a tensor shape as "10x8x8".
func shapeString(shape []int) string {
	parts := make([]string, len(shape))
	for i, d := range shape {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return strings.Join(parts, "x")
}
