// Package dataset generates the synthetic stand-ins for the paper's
// proprietary measurement campaigns (see the substitution table in
// DESIGN.md): the lounge temperature field of the first MicroDeep
// experiment and the film-type IR-sensor gait streams of the second.
// Both generators are deterministic for a given seed and produce data in
// exactly the tensor shapes the paper's CNNs consume.
package dataset

import (
	"fmt"
	"math"

	"zeiot/internal/cnn"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// LoungeConfig parameterizes the thermal-field generator. The defaults
// reproduce the paper's campaign: a >1,400 m² lounge divided into 25×17
// cells, sampled every 30 minutes for 2,961 samples (Aug 26–Oct 27 2016),
// labelled comfortable/uncomfortable.
type LoungeConfig struct {
	// Rows, Cols are the cell grid dimensions.
	Rows, Cols int
	// Samples is the number of snapshots to generate.
	Samples int
	// EventProb is the per-snapshot probability of a thermal discomfort
	// event (a failing AC zone or sun-heated window region).
	EventProb float64
	// NoiseC is the per-cell sensor noise in °C.
	NoiseC float64
	// Seed is the root seed callers derive the generator stream from
	// (rng.New(Seed)); the generators themselves never read it.
	Seed uint64
}

// DefaultLoungeConfig matches the paper's campaign dimensions.
func DefaultLoungeConfig() LoungeConfig {
	return LoungeConfig{Rows: 17, Cols: 25, Samples: 2961, EventProb: 0.5, NoiseC: 0.25, Seed: 1}
}

// GenerateLoungeFrom produces labelled temperature snapshots drawing every
// variate from the given stream. Label 1 means discomfort: the snapshot
// contains a thermal anomaly region (≥ 3 °C deviation blob) on top of the
// diurnal/seasonal base field. The CNN's job — like the paper's — is to
// recognize the spatial anomaly pattern through the confounding smooth
// background variation. cfg.Seed is ignored: seeding is the caller's (the
// experiment harness's) business, so one root seed can derive this stream
// by name like every other generator.
func GenerateLoungeFrom(cfg LoungeConfig, stream *rng.Stream) ([]cnn.Sample, error) {
	if cfg.Rows <= 0 || cfg.Cols <= 0 || cfg.Samples <= 0 {
		return nil, fmt.Errorf("dataset: invalid lounge config %+v", cfg)
	}
	samples := make([]cnn.Sample, 0, cfg.Samples)
	for i := 0; i < cfg.Samples; i++ {
		label := 0
		var event blob
		if stream.Bool(cfg.EventProb) {
			label = 1
			event = drawLoungeEvent(cfg, stream)
		}
		field := renderLoungeSnapshot(cfg, i, label, event, stream)
		samples = append(samples, cnn.Sample{Input: field, Label: label})
	}
	return samples, nil
}

// drawLoungeEvent draws one thermal anomaly: a hot or cold blob of 3–6 °C
// placed uniformly over the field.
func drawLoungeEvent(cfg LoungeConfig, stream *rng.Stream) blob {
	event := blob{
		y:     stream.Float64() * float64(cfg.Rows-1),
		x:     stream.Float64() * float64(cfg.Cols-1),
		sigma: 1.5 + stream.Float64()*2,
	}
	// Hot or cold anomaly, 3–6 °C.
	event.amp = 3 + stream.Float64()*3
	if stream.Bool(0.5) {
		event.amp = -event.amp
	}
	return event
}

// renderLoungeSnapshot renders campaign sample i: the diurnal/seasonal base
// field, the fixed building features, the anomaly blob when label is 1, and
// per-cell sensor noise drawn from stream, standardized in place.
func renderLoungeSnapshot(cfg LoungeConfig, i, label int, event blob, stream *rng.Stream) *tensor.Tensor {
	// Fixed building features: a window strip along one edge and two AC
	// vents, so the background has realistic persistent structure.
	ventA := blob{y: float64(cfg.Rows) * 0.25, x: float64(cfg.Cols) * 0.3, sigma: 4}
	ventB := blob{y: float64(cfg.Rows) * 0.75, x: float64(cfg.Cols) * 0.7, sigma: 4}
	// 48 half-hour samples per day; a smooth diurnal swing plus a slow
	// seasonal cool-down across the campaign.
	day := float64(i) / 48
	hour := math.Mod(float64(i), 48) / 2
	base := 24 + 2.5*math.Sin((hour-14)/24*2*math.Pi) - 2.5*day/62
	acStrength := 0.5 + 0.2*math.Sin(day/7*2*math.Pi)

	field := tensor.New(1, cfg.Rows, cfg.Cols)
	for y := 0; y < cfg.Rows; y++ {
		for x := 0; x < cfg.Cols; x++ {
			t := base
			// Window edge (x = 0) warms with the sun at midday.
			t += 0.5 * math.Exp(-float64(x)/3) * math.Max(0, math.Sin((hour-13)/24*2*math.Pi))
			t -= acStrength * ventA.at(y, x)
			t -= acStrength * ventB.at(y, x)
			if label == 1 {
				t += event.amp * event.at(y, x)
			}
			t += stream.NormMeanStd(0, cfg.NoiseC)
			field.Set(t, 0, y, x)
		}
	}
	normalizeField(field)
	return field
}

// GenerateLoungeSnapshot renders one labelled snapshot at a stream-drawn
// campaign time — the per-sample path the unified modality layer uses. The
// returned tensor is shaped (1, Rows, Cols).
func GenerateLoungeSnapshot(cfg LoungeConfig, discomfort bool, stream *rng.Stream) *tensor.Tensor {
	i := stream.Intn(cfg.Samples)
	label := 0
	var event blob
	if discomfort {
		label = 1
		event = drawLoungeEvent(cfg, stream)
	}
	return renderLoungeSnapshot(cfg, i, label, event, stream)
}

type blob struct {
	y, x, sigma, amp float64
}

func (b blob) at(y, x int) float64 {
	dy := float64(y) - b.y
	dx := float64(x) - b.x
	return math.Exp(-(dy*dy + dx*dx) / (2 * b.sigma * b.sigma))
}

// normalizeField standardizes one snapshot in place (zero mean, unit
// variance) — each sensor node can do this locally from the broadcast mean,
// and it removes the uninformative base temperature.
func normalizeField(t *tensor.Tensor) {
	data := t.Data()
	mean := 0.0
	for _, v := range data {
		mean += v
	}
	mean /= float64(len(data))
	variance := 0.0
	for _, v := range data {
		variance += (v - mean) * (v - mean)
	}
	std := math.Sqrt(variance/float64(len(data))) + 1e-9
	for i, v := range data {
		data[i] = (v - mean) / std
	}
}
