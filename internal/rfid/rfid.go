// Package rfid implements the RFID-tag-array sensing of §III.A: phase-based
// ranging, movement-direction estimation from backscatter phase (ref. [61]),
// and RF-Kinect-style body tracking from tags attached to joints (Fig. 2(a)).
//
// A COTS reader observes the backscatter phase θ = (4π·d/λ + θ_offset) mod
// 2π of each tag — a precise but ambiguous distance measurement. Tracking
// unwraps the phase over time to recover distance *changes*, which is
// enough to follow motion from a known starting pose, exactly the
// training-free approach RF-Kinect takes.
package rfid

import (
	"fmt"
	"math"

	"zeiot/internal/geom"
	"zeiot/internal/rng"
)

// Direction of radial movement relative to a reader.
type Direction int

// Directions.
const (
	DirectionStationary Direction = iota
	DirectionApproaching
	DirectionReceding
)

func (d Direction) String() string {
	switch d {
	case DirectionStationary:
		return "stationary"
	case DirectionApproaching:
		return "approaching"
	case DirectionReceding:
		return "receding"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Reader is one RFID reader antenna.
type Reader struct {
	Pos geom.Point
	// Lambda is the carrier wavelength in metres (~0.327 m in the 915 MHz
	// UHF band).
	Lambda float64
	// PhaseNoise is the 1σ phase measurement noise in radians.
	PhaseNoise float64
	// Offset is the per-reader constant phase offset (cable lengths,
	// tag chip) — unknown to the estimator, calibrated away by differencing.
	Offset float64
}

// UHFReader returns a reader at pos with 915 MHz parameters.
func UHFReader(pos geom.Point) Reader {
	return Reader{Pos: pos, Lambda: 0.327, PhaseNoise: 0.1, Offset: 1.234}
}

// Phase returns the wrapped backscatter phase for a tag at p.
func (r Reader) Phase(p geom.Point, stream *rng.Stream) float64 {
	d := geom.Dist(r.Pos, p)
	theta := 4*math.Pi*d/r.Lambda + r.Offset
	if stream != nil {
		theta += stream.NormMeanStd(0, r.PhaseNoise)
	}
	return math.Mod(theta, 2*math.Pi)
}

// UnwrapPhases removes 2π jumps from a wrapped phase sequence, assuming the
// tag moves less than λ/4 between consecutive readings (the standard
// tracking assumption).
func UnwrapPhases(wrapped []float64) []float64 {
	out := make([]float64, len(wrapped))
	if len(wrapped) == 0 {
		return out
	}
	out[0] = wrapped[0]
	for i := 1; i < len(wrapped); i++ {
		out[i] = out[i-1] + unwrapStep(wrapped[i-1], wrapped[i])
	}
	return out
}

// unwrapStep returns the phase change from the wrapped reading prev to the
// wrapped reading next, reduced into [-π, π] by whole turns.
func unwrapStep(prev, next float64) float64 {
	delta := next - prev
	for delta > math.Pi {
		delta -= 2 * math.Pi
	}
	for delta < -math.Pi {
		delta += 2 * math.Pi
	}
	return delta
}

// DeltaDistances converts an unwrapped phase sequence into distance changes
// relative to the first reading: Δd = Δθ·λ/(4π).
func DeltaDistances(unwrapped []float64, lambda float64) []float64 {
	out := make([]float64, len(unwrapped))
	for i, th := range unwrapped {
		out[i] = (th - unwrapped[0]) * lambda / (4 * math.Pi)
	}
	return out
}

// EstimateDirection classifies the radial movement of a tag from its
// wrapped phase sequence (ref. [61]): the slope of the unwrapped phase is
// negative while approaching and positive while receding. threshold is the
// minimum total distance change (metres) treated as movement.
func EstimateDirection(wrapped []float64, lambda, threshold float64) Direction {
	if len(wrapped) < 2 {
		return DirectionStationary
	}
	dd := DeltaDistances(UnwrapPhases(wrapped), lambda)
	total := dd[len(dd)-1]
	switch {
	case total <= -threshold:
		return DirectionApproaching
	case total >= threshold:
		return DirectionReceding
	default:
		return DirectionStationary
	}
}

// Tracker follows one tag from a known starting position using phase
// streams from ≥ 3 readers: per reader, unwrapped phase gives the distance
// change, so the tag's current distance to each reader is known and the
// position follows by Gauss–Newton trilateration seeded at the previous
// estimate.
type Tracker struct {
	Readers []Reader
	// pos is the current estimate; d0 the initial distances.
	pos geom.Point
	d0  []float64
	// phase unwraps each reader's stream one reading at a time; dists is
	// Observe's scratch of current distances.
	phase []phaseTrack
	dists []float64
}

// phaseTrack is one reader's unwrapped phase stream, advanced by
// UnwrapPhases' step: the last wrapped reading, and the first and the
// current unwrapped phase. The first reading starts it.
type phaseTrack struct {
	started              bool
	last, first, current float64
}

// NewTracker starts tracking a tag known to begin at start.
func NewTracker(readers []Reader, start geom.Point) (*Tracker, error) {
	if len(readers) < 3 {
		return nil, fmt.Errorf("rfid: tracking needs >= 3 readers, got %d", len(readers))
	}
	t := &Tracker{Readers: readers, pos: start, d0: make([]float64, len(readers))}
	for i, r := range readers {
		t.d0[i] = geom.Dist(r.Pos, start)
	}
	t.phase = make([]phaseTrack, len(readers))
	t.dists = make([]float64, len(readers))
	return t, nil
}

// Observe ingests one wrapped-phase reading per reader and returns the
// updated position estimate.
func (t *Tracker) Observe(phases []float64) (geom.Point, error) {
	if len(phases) != len(t.Readers) {
		return geom.Point{}, fmt.Errorf("rfid: %d phases for %d readers", len(phases), len(t.Readers))
	}
	// Current distance to each reader = initial distance + Δd from the
	// unwrapped phase stream, in DeltaDistances' operation order.
	dists := t.dists
	for i, r := range t.Readers {
		pt := &t.phase[i]
		if pt.started {
			pt.current += unwrapStep(pt.last, phases[i])
		} else {
			pt.started = true
			pt.first, pt.current = phases[i], phases[i]
		}
		pt.last = phases[i]
		dists[i] = t.d0[i] + (pt.current-pt.first)*r.Lambda/(4*math.Pi)
	}
	// Gauss–Newton from the previous estimate.
	p := t.pos
	for iter := 0; iter < 10; iter++ {
		var jtj [2][2]float64
		var jtr [2]float64
		for i, r := range t.Readers {
			di := geom.Dist(r.Pos, p)
			if di < 1e-6 {
				di = 1e-6
			}
			res := di - dists[i]
			jx := (p.X - r.Pos.X) / di
			jy := (p.Y - r.Pos.Y) / di
			jtj[0][0] += jx * jx
			jtj[0][1] += jx * jy
			jtj[1][0] += jy * jx
			jtj[1][1] += jy * jy
			jtr[0] += jx * res
			jtr[1] += jy * res
		}
		det := jtj[0][0]*jtj[1][1] - jtj[0][1]*jtj[1][0]
		if math.Abs(det) < 1e-12 {
			break
		}
		dx := (jtj[1][1]*jtr[0] - jtj[0][1]*jtr[1]) / det
		dy := (jtj[0][0]*jtr[1] - jtj[1][0]*jtr[0]) / det
		p.X -= dx
		p.Y -= dy
		if math.Hypot(dx, dy) < 1e-9 {
			break
		}
	}
	t.pos = p
	return p, nil
}

// Pos returns the current estimate.
func (t *Tracker) Pos() geom.Point { return t.pos }

// Skeleton tracks a small tag array attached to body joints (Fig. 2(a)):
// one Tracker per joint, plus derived joint angles.
type Skeleton struct {
	// JointNames orders the joints; Trackers aligns with it.
	JointNames []string
	Trackers   []*Tracker
}

// NewSkeleton builds one tracker per joint from the shared reader set.
func NewSkeleton(readers []Reader, names []string, start []geom.Point) (*Skeleton, error) {
	if len(names) != len(start) {
		return nil, fmt.Errorf("rfid: %d names for %d start positions", len(names), len(start))
	}
	s := &Skeleton{JointNames: names}
	for _, p := range start {
		tr, err := NewTracker(readers, p)
		if err != nil {
			return nil, err
		}
		s.Trackers = append(s.Trackers, tr)
	}
	return s, nil
}

// Observe ingests one phase reading per (joint, reader) and returns the
// estimated joint positions.
func (s *Skeleton) Observe(phases [][]float64) ([]geom.Point, error) {
	if len(phases) != len(s.Trackers) {
		return nil, fmt.Errorf("rfid: %d phase sets for %d joints", len(phases), len(s.Trackers))
	}
	out := make([]geom.Point, len(s.Trackers))
	for i, tr := range s.Trackers {
		p, err := tr.Observe(phases[i])
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// LimbAngle returns the orientation (radians) of the limb from joint a to
// joint b under the current estimates.
func (s *Skeleton) LimbAngle(a, b int) float64 {
	pa, pb := s.Trackers[a].Pos(), s.Trackers[b].Pos()
	return math.Atan2(pb.Y-pa.Y, pb.X-pa.X)
}
