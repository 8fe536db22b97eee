// Package intrusion implements use case (iii) of §III.C — detecting
// intrusion of wild animals and classifying humans versus animals — with a
// CNN over UWB-radar-style range–time maps, the approach of ref. [46].
//
// A monitoring radar samples the scene at a few Hz; each frame is the
// reflected energy per range bin. A moving target draws a trace through
// the range–time map whose texture differs by gait: a human's bipedal
// steps modulate the reflection at ~2 Hz with a tall, narrow range
// extent, a quadruped's trot modulates faster with a longer, lower body,
// and wind-blown clutter stays unmodulated. The classifier is the zeiot
// CNN (internal/cnn) on those maps — the same network family MicroDeep
// distributes.
package intrusion

import (
	"fmt"
	"math"

	"zeiot/internal/cnn"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// Class is a scene label.
type Class int

// Classes.
const (
	ClassEmpty Class = iota
	ClassHuman
	ClassAnimal
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassEmpty:
		return "empty"
	case ClassHuman:
		return "human"
	case ClassAnimal:
		return "animal"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// NumClasses returns the label count.
func NumClasses() int { return int(numClasses) }

// Config parameterizes map generation.
type Config struct {
	// RangeBins and Frames are the map dimensions (range × time).
	RangeBins, Frames int
	// FrameHz is the radar frame rate.
	FrameHz float64
	// Noise is the clutter noise level.
	Noise float64
	// Seed drives generation.
	Seed uint64
}

// DefaultConfig returns 24 range bins × 24 frames at 8 Hz.
func DefaultConfig() Config {
	return Config{RangeBins: 24, Frames: 24, FrameHz: 8, Noise: 0.12, Seed: 1}
}

// Generate produces one labelled range–time map.
func Generate(cfg Config, class Class, stream *rng.Stream) *tensor.Tensor {
	m := tensor.New(1, cfg.RangeBins, cfg.Frames)
	// Static clutter ridge (fence, vegetation) common to all classes.
	clutterBin := stream.Intn(cfg.RangeBins)
	for f := 0; f < cfg.Frames; f++ {
		for r := 0; r < cfg.RangeBins; r++ {
			v := stream.NormMeanStd(0, cfg.Noise)
			if r == clutterBin {
				v += 0.3
			}
			m.Set(v, 0, r, f)
		}
	}
	if class == ClassEmpty {
		return m
	}
	// A target approaches: range decreases over the window.
	startBin := float64(cfg.RangeBins-3) * (0.6 + 0.4*stream.Float64())
	speedBins := (0.15 + 0.2*stream.Float64()) // bins per frame
	var gaitHz, bodyLen, amp float64
	switch class {
	case ClassHuman:
		gaitHz = 1.8 + 0.4*stream.Float64()
		bodyLen = 1.2 // narrow in range (upright)
		amp = 0.9
	case ClassAnimal:
		gaitHz = 3.2 + 0.8*stream.Float64()
		bodyLen = 3.0 // elongated body spans more range bins
		amp = 0.8
	}
	phase := stream.Float64() * 2 * math.Pi
	for f := 0; f < cfg.Frames; f++ {
		t := float64(f) / cfg.FrameHz
		center := startBin - speedBins*float64(f)
		// Gait modulation of the reflected energy.
		mod := 1 + 0.5*math.Sin(2*math.Pi*gaitHz*t+phase)
		for r := 0; r < cfg.RangeBins; r++ {
			d := (float64(r) - center) / bodyLen
			v := m.At(0, r, f) + amp*mod*math.Exp(-d*d)
			m.Set(v, 0, r, f)
		}
	}
	return m
}

// GenerateDataset produces perClass labelled maps per class.
func GenerateDataset(cfg Config, perClass int, stream *rng.Stream) []cnn.Sample {
	var out []cnn.Sample
	for c := Class(0); c < numClasses; c++ {
		for i := 0; i < perClass; i++ {
			out = append(out, cnn.Sample{
				Input: Generate(cfg, c, stream.Split(fmt.Sprintf("%v-%d", c, i))),
				Label: int(c),
			})
		}
	}
	stream.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// NewDetector builds the CNN of ref. [46]'s scale for the configured map
// size.
func NewDetector(cfg Config, stream *rng.Stream) *cnn.Network {
	return cnn.NewNetwork([]int{1, cfg.RangeBins, cfg.Frames},
		cnn.NewConv2D(1, 6, 3, 3, 1, 1, stream.Split("c1")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(2, 2),
		cnn.NewFlatten(),
		cnn.NewDense(6*(cfg.RangeBins/2)*(cfg.Frames/2), 24, stream.Split("d1")),
		cnn.NewReLU(),
		cnn.NewDense(24, NumClasses(), stream.Split("d2")),
	)
}
