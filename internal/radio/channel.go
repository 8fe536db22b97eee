package radio

import (
	"cmp"
	"math"
	"math/cmplx"
	"slices"

	"zeiot/internal/geom"
	"zeiot/internal/rng"
)

// Tap is one resolvable multipath component.
type Tap struct {
	// DelaySec is the excess propagation delay in seconds.
	DelaySec float64
	// Gain is the complex amplitude of the path.
	Gain complex128
}

// MultipathChannel is a tapped-delay-line channel between one transmit
// antenna and one receive antenna. Its frequency response across OFDM
// subcarriers is what Wi-Fi CSI measures.
type MultipathChannel struct {
	Taps []Tap
}

// FrequencyResponse returns H(f) at the given absolute frequency.
func (c MultipathChannel) FrequencyResponse(freqHz float64) complex128 {
	var h complex128
	for _, t := range c.Taps {
		phase := -2 * math.Pi * freqHz * t.DelaySec
		h += t.Gain * cmplx.Exp(complex(0, phase))
	}
	return h
}

// SubcarrierResponse returns H over n subcarriers centred on centerHz with
// the given spacing (312.5 kHz for Wi-Fi).
func (c MultipathChannel) SubcarrierResponse(centerHz, spacingHz float64, n int) []complex128 {
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		f := centerHz + (float64(k)-float64(n-1)/2)*spacingHz
		out[k] = c.FrequencyResponse(f)
	}
	return out
}

// Scatterer is a reflecting object in a scene (furniture, walls, a human
// torso). Humans are scatterers whose position changes between snapshots —
// that movement is exactly what makes CSI informative about people.
type Scatterer struct {
	Pos geom.Point
	// Reflectivity is the fraction of incident amplitude re-radiated
	// (0..1).
	Reflectivity float64
}

// Scene is a 2-D radio environment: a transmitter, a receiver, and a set of
// scatterers. SceneChannel ray-traces the direct path plus one bounce off
// every scatterer into a tapped-delay-line channel.
type Scene struct {
	TX, RX     geom.Point
	CenterHz   float64
	Scatterers []Scatterer
	// LoSBlocked attenuates the direct path by 0.2 amplitude when true
	// (e.g. a person standing on the line of sight).
	LoSBlocked bool
}

// Channel builds the multipath channel for the scene. stream adds a small
// complex perturbation per tap modelling measurement noise and micro-motion;
// nil disables it.
func (s Scene) Channel(stream *rng.Stream) MultipathChannel {
	lambda := SpeedOfLight / s.CenterHz
	var taps []Tap
	addPath := func(length, amp float64) {
		if length <= 0 {
			length = 1e-3
		}
		// Amplitude rolls off as 1/d; phase by path length.
		a := amp * lambda / (4 * math.Pi * length)
		phase := -2 * math.Pi * length / lambda
		g := complex(a*math.Cos(phase), a*math.Sin(phase))
		if stream != nil {
			g += complex(stream.NormMeanStd(0, a*0.02), stream.NormMeanStd(0, a*0.02))
		}
		taps = append(taps, Tap{DelaySec: length / SpeedOfLight, Gain: g})
	}
	direct := geom.Dist(s.TX, s.RX)
	dirAmp := 1.0
	if s.LoSBlocked {
		dirAmp = 0.2
	}
	addPath(direct, dirAmp)
	for _, sc := range s.Scatterers {
		length := geom.Dist(s.TX, sc.Pos) + geom.Dist(sc.Pos, s.RX)
		addPath(length, sc.Reflectivity)
	}
	return MultipathChannel{Taps: taps}
}

// BodyAttenuationDB is the extra loss a link suffers for each human body
// intersecting its line of sight. Measurements at 2.4 GHz report 3–10 dB per
// body; we use 6 dB as the nominal value, matching the congestion
// estimators' likelihood models.
const BodyAttenuationDB = 6.0

// Obstacles is one sweep's people, each a body of one radius that
// attenuates every link passing through it, indexed by X so a link tests
// only the people beside its X-range.
type Obstacles struct {
	pts []geom.Point // sorted by X, NaN first
	r   float64
}

// NewObstacles indexes people, each with the given body radius. It copies
// people, so the caller may reuse the slice.
func NewObstacles(people []geom.Point, bodyRadius float64) Obstacles {
	pts := slices.Clone(people)
	slices.SortFunc(pts, func(p, q geom.Point) int { return cmp.Compare(p.X, q.X) })
	return Obstacles{pts: pts, r: bodyRadius}
}

// LossDB returns the body attenuation of link a→b: BodyAttenuationDB for
// every person whose body the link crosses. It tests only the people whose
// X lies within the link's X-range widened by the radius and a rounding
// margin. Skipping the rest is exact: geom.SegmentIntersectsCircle's
// distance is math.Hypot(dx, dy) >= |dx|, and the margin exceeds the
// rounding of the nearest point's X and of dx. An infinite radius tests
// everyone, since a person with a NaN X can then still count.
func (o Obstacles) LossDB(a, b geom.Point) float64 {
	pts, hi := o.pts, math.Inf(1)
	if !math.IsInf(o.r, 1) {
		lo := math.Min(a.X, b.X)
		hi = math.Max(a.X, b.X)
		pad := o.r + (o.r+math.Abs(lo)+math.Abs(hi))*0x1p-40
		i, _ := slices.BinarySearchFunc(pts, lo-pad, func(p geom.Point, x float64) int { return cmp.Compare(p.X, x) })
		pts, hi = pts[i:], hi+pad
	}
	n := 0
	for _, p := range pts {
		if p.X > hi {
			break
		}
		if geom.SegmentIntersectsCircle(a, b, p, o.r) {
			n++
		}
	}
	return float64(n) * BodyAttenuationDB
}
