package dataset

import (
	"fmt"
	"math"

	"zeiot/internal/cnn"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// GaitConfig parameterizes the IR-sensor-array gait generator. The
// defaults reproduce the paper's second MicroDeep experiment: 55 gait
// streams from 5 subjects, each a stream of 66 frames at 5 fps over the
// film-type IR array, cut into 2-second (10-frame) windows.
type GaitConfig struct {
	// Rows, Cols are the IR pixel grid (the prototyped array of Fig. 9).
	Rows, Cols int
	// Streams is the number of gait recordings; Subjects how many
	// distinct walkers produced them (walking speed/height vary per
	// subject).
	Streams, Subjects int
	// FramesPerStream and WindowFrames follow the paper: 66 frames,
	// 10-frame windows.
	FramesPerStream, WindowFrames int
	// FallFraction of the streams contain a fall.
	FallFraction float64
	// NoiseLevel is per-pixel IR noise.
	NoiseLevel float64
	// Seed is the root seed callers derive the generator stream from
	// (rng.New(Seed)); the generators themselves never read it.
	Seed uint64
}

// DefaultGaitConfig matches the paper's recording campaign.
func DefaultGaitConfig() GaitConfig {
	return GaitConfig{
		Rows: 8, Cols: 8,
		Streams: 55, Subjects: 5,
		FramesPerStream: 66, WindowFrames: 10,
		FallFraction: 0.5,
		NoiseLevel:   0.05,
		Seed:         1,
	}
}

// minFallFrames is the minimum number of post-onset frames a window must
// show to be labelled a fall (see Windows and GenerateGaitWindow).
const minFallFrames = 3

// GaitStream is one recording with per-frame fall ground truth.
type GaitStream struct {
	// Frames[f] is the IR image at frame f, shape (Rows, Cols).
	Frames []*tensor.Tensor
	// FallAt is the frame index where the fall begins, or -1 for a normal
	// walk.
	FallAt int
	// Subject identifies the walker.
	Subject int
}

// GenerateGaitStreamsFrom simulates the recording campaign drawing every
// variate from the given stream: a warm body blob crosses the array; in
// fall streams it collapses mid-passage — dropping to the floor rows and
// spreading horizontally, the signature the real array sees. cfg.Seed is
// ignored: seeding is the caller's (the experiment harness's) business, so
// one root seed can derive this stream by name like every other generator.
func GenerateGaitStreamsFrom(cfg GaitConfig, stream *rng.Stream) ([]GaitStream, error) {
	if cfg.Rows <= 0 || cfg.Cols <= 0 || cfg.Streams <= 0 || cfg.Subjects <= 0 {
		return nil, fmt.Errorf("dataset: invalid gait config %+v", cfg)
	}
	if cfg.WindowFrames > cfg.FramesPerStream {
		return nil, fmt.Errorf("dataset: window %d exceeds stream length %d", cfg.WindowFrames, cfg.FramesPerStream)
	}
	out := make([]GaitStream, 0, cfg.Streams)
	for si := 0; si < cfg.Streams; si++ {
		subject := si % cfg.Subjects
		// Subjects differ in walking speed and body height; the paper
		// notes walking speed is not uniform across persons.
		speed := (0.6 + 0.15*float64(subject)) * (0.85 + 0.3*stream.Float64())
		fallAt := -1
		if stream.Bool(cfg.FallFraction) {
			fallAt = cfg.FramesPerStream/3 + stream.Intn(cfg.FramesPerStream/3)
		}
		out = append(out, renderGaitStream(cfg, subject, speed, fallAt, cfg.FramesPerStream, stream))
	}
	return out, nil
}

// renderGaitStream renders one recording of frames frames: the walk
// kinematics (pacing, bounce) and — when fallAt >= 0 — the collapse, with
// per-pixel IR noise drawn from stream. The start position and pacing
// direction draws happen here, after the caller's per-stream draws, so the
// campaign path keeps its historical draw order exactly.
func renderGaitStream(cfg GaitConfig, subject int, speed float64, fallAt, frames int, stream *rng.Stream) GaitStream {
	height := 0.55 + 0.07*float64(subject%3)
	gs := GaitStream{FallAt: fallAt, Subject: subject}
	// The subject paces back and forth across the array (one passage
	// takes ~10 frames, matching the paper's 2-second window choice).
	x := stream.Float64() * float64(cfg.Cols-1)
	dir := 1.0
	if stream.Bool(0.5) {
		dir = -1
	}
	for f := 0; f < frames; f++ {
		img := tensor.New(cfg.Rows, cfg.Cols)
		bodyY := (1 - height) * float64(cfg.Rows-1)
		sigmaY, sigmaX := 1.6, 0.9
		fallen := gs.FallAt >= 0 && f >= gs.FallAt
		if fallen {
			// Collapse: centroid drops to the floor and the blob
			// spreads horizontally over ~3 frames.
			progress := math.Min(1, float64(f-gs.FallAt)/3)
			bodyY = bodyY + progress*(float64(cfg.Rows-1)-bodyY)
			sigmaY = 1.6 - progress*1.0
			sigmaX = 0.9 + progress*1.8
		} else {
			x += speed * dir
			if x >= float64(cfg.Cols-1) {
				x = float64(cfg.Cols - 1)
				dir = -1
			} else if x <= 0 {
				x = 0
				dir = 1
			}
			// Gait bounce.
			bodyY += 0.4 * math.Sin(float64(f)*1.1)
		}
		for yy := 0; yy < cfg.Rows; yy++ {
			for xx := 0; xx < cfg.Cols; xx++ {
				dy := (float64(yy) - bodyY) / sigmaY
				dx := (float64(xx) - x) / sigmaX
				heat := math.Exp(-(dy*dy + dx*dx) / 2)
				heat += stream.NormMeanStd(0, cfg.NoiseLevel)
				img.Set(heat, yy, xx)
			}
		}
		gs.Frames = append(gs.Frames, img)
	}
	return gs
}

// GenerateGaitWindow renders one labelled window directly, without the
// surrounding recording campaign — the per-sample path the unified modality
// layer uses. fall=true places the collapse onset uniformly so at least
// minFallFrames post-onset frames are visible, matching the labelling rule
// Windows applies to campaign recordings. The returned tensor is shaped
// (WindowFrames, Rows, Cols).
func GenerateGaitWindow(cfg GaitConfig, fall bool, stream *rng.Stream) *tensor.Tensor {
	subject := stream.Intn(cfg.Subjects)
	speed := (0.6 + 0.15*float64(subject)) * (0.85 + 0.3*stream.Float64())
	fallAt := -1
	if fall {
		fallAt = stream.Intn(cfg.WindowFrames - minFallFrames + 1)
	}
	gs := renderGaitStream(cfg, subject, speed, fallAt, cfg.WindowFrames, stream)
	out := tensor.New(cfg.WindowFrames, cfg.Rows, cfg.Cols)
	for f := 0; f < cfg.WindowFrames; f++ {
		dst := out.Data()[f*cfg.Rows*cfg.Cols : (f+1)*cfg.Rows*cfg.Cols]
		copy(dst, gs.Frames[f].Data())
	}
	return out
}

// Windows cuts every stream into sliding windows of cfg.WindowFrames
// frames (stride 1) and stacks each window's frames as input channels —
// the 3-D arrays the paper feeds its CNN.
//
// Labelling: a window is a fall (1) when the onset lies inside it with at
// least three post-onset frames visible; windows fully before the onset
// are walks (0). Windows where the onset enters only in the last two
// frames are ambiguous and skipped, as are post-fall windows (the subject
// lying still is the alarm state, not a walking sample).
func Windows(cfg GaitConfig, streams []GaitStream) []cnn.Sample {
	var out []cnn.Sample
	for _, gs := range streams {
		for start := 0; start+cfg.WindowFrames <= len(gs.Frames); start++ {
			label := 0
			if gs.FallAt >= 0 {
				switch {
				case start > gs.FallAt:
					continue // post-fall lying period
				case gs.FallAt <= start+cfg.WindowFrames-minFallFrames:
					label = 1
				case gs.FallAt < start+cfg.WindowFrames:
					continue // onset only grazes the window
				}
			}
			in := tensor.New(cfg.WindowFrames, cfg.Rows, cfg.Cols)
			for f := 0; f < cfg.WindowFrames; f++ {
				src := gs.Frames[start+f].Data()
				dst := in.Data()[f*cfg.Rows*cfg.Cols : (f+1)*cfg.Rows*cfg.Cols]
				copy(dst, src)
			}
			out = append(out, cnn.Sample{Input: in, Label: label})
		}
	}
	return out
}

// BalancedWindows subsamples the negative class so falls are not swamped:
// it keeps every fall window and ratio× as many walk windows, drawn
// deterministically from stream.
func BalancedWindows(cfg GaitConfig, streams []GaitStream, ratio float64, stream *rng.Stream) []cnn.Sample {
	all := Windows(cfg, streams)
	var falls, walks []cnn.Sample
	for _, s := range all {
		if s.Label == 1 {
			falls = append(falls, s)
		} else {
			walks = append(walks, s)
		}
	}
	want := int(float64(len(falls)) * ratio)
	if want > len(walks) {
		want = len(walks)
	}
	perm := stream.Perm(len(walks))
	out := append([]cnn.Sample(nil), falls...)
	for _, idx := range perm[:want] {
		out = append(out, walks[idx])
	}
	stream.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
