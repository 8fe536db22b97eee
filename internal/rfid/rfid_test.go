package rfid

import (
	"math"
	"testing"

	"zeiot/internal/geom"
	"zeiot/internal/rng"
)

func TestPhaseWrapsAndDependsOnDistance(t *testing.T) {
	r := UHFReader(geom.Point{})
	p1 := r.Phase(geom.Point{X: 1, Y: 0}, nil)
	p2 := r.Phase(geom.Point{X: 1.01, Y: 0}, nil)
	if p1 < 0 || p1 >= 2*math.Pi || p2 < 0 || p2 >= 2*math.Pi {
		t.Fatalf("phases out of range: %v %v", p1, p2)
	}
	if p1 == p2 {
		t.Fatal("phase insensitive to distance")
	}
	// Moving by λ/2 wraps the round-trip phase by exactly 2π.
	p3 := r.Phase(geom.Point{X: 1 + r.Lambda/2, Y: 0}, nil)
	if math.Abs(p3-p1) > 1e-9 {
		t.Fatalf("λ/2 move did not wrap cleanly: %v vs %v", p1, p3)
	}
}

func TestUnwrapRecoversLinearMotion(t *testing.T) {
	r := UHFReader(geom.Point{})
	r.PhaseNoise = 0
	var wrapped []float64
	// Tag recedes from 1 m to 2 m in 2 cm steps (< λ/4 per step).
	for i := 0; i <= 50; i++ {
		d := 1.0 + 0.02*float64(i)
		wrapped = append(wrapped, r.Phase(geom.Point{X: d, Y: 0}, nil))
	}
	dd := DeltaDistances(UnwrapPhases(wrapped), r.Lambda)
	got := dd[len(dd)-1]
	if math.Abs(got-1.0) > 1e-6 {
		t.Fatalf("recovered distance change %v, want 1.0", got)
	}
}

func TestEstimateDirection(t *testing.T) {
	r := UHFReader(geom.Point{})
	r.PhaseNoise = 0.05
	s := rng.New(1)
	seq := func(from, to float64) []float64 {
		var out []float64
		steps := 50
		for i := 0; i <= steps; i++ {
			d := from + (to-from)*float64(i)/float64(steps)
			out = append(out, r.Phase(geom.Point{X: d, Y: 0}, s))
		}
		return out
	}
	if got := EstimateDirection(seq(2, 1), r.Lambda, 0.2); got != DirectionApproaching {
		t.Fatalf("approaching classified as %v", got)
	}
	if got := EstimateDirection(seq(1, 2), r.Lambda, 0.2); got != DirectionReceding {
		t.Fatalf("receding classified as %v", got)
	}
	if got := EstimateDirection(seq(1.5, 1.5), r.Lambda, 0.2); got != DirectionStationary {
		t.Fatalf("stationary classified as %v", got)
	}
	if got := EstimateDirection(nil, r.Lambda, 0.2); got != DirectionStationary {
		t.Fatalf("empty sequence classified as %v", got)
	}
}

func testReaders() []Reader {
	rs := []Reader{
		UHFReader(geom.Point{X: 0, Y: 0}),
		UHFReader(geom.Point{X: 6, Y: 0}),
		UHFReader(geom.Point{X: 3, Y: 5}),
		UHFReader(geom.Point{X: 0, Y: 5}),
	}
	for i := range rs {
		rs[i].PhaseNoise = 0.05
		rs[i].Offset = 0.5 * float64(i+1)
	}
	return rs
}

func TestTrackerValidation(t *testing.T) {
	if _, err := NewTracker(testReaders()[:2], geom.Point{}); err == nil {
		t.Fatal("two readers accepted")
	}
	tr, err := NewTracker(testReaders(), geom.Point{X: 3, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Observe([]float64{1, 2}); err == nil {
		t.Fatal("wrong phase count accepted")
	}
}

func TestTrackerFollowsPath(t *testing.T) {
	readers := testReaders()
	stream := rng.New(2)
	start := geom.Point{X: 2, Y: 2}
	tr, err := NewTracker(readers, start)
	if err != nil {
		t.Fatal(err)
	}
	// True path: an L-shaped walk in 2 cm steps.
	truth := start
	maxErr := 0.0
	step := func(dx, dy float64) {
		truth = truth.Add(geom.Point{X: dx, Y: dy})
		phases := make([]float64, len(readers))
		for i, r := range readers {
			phases[i] = r.Phase(truth, stream)
		}
		est, err := tr.Observe(phases)
		if err != nil {
			t.Fatal(err)
		}
		maxErr = math.Max(maxErr, geom.Dist(est, truth))
	}
	for i := 0; i < 80; i++ {
		step(0.02, 0)
	}
	for i := 0; i < 60; i++ {
		step(0, 0.02)
	}
	if maxErr > 0.15 {
		t.Fatalf("max tracking error %.3f m", maxErr)
	}
}

func TestTrackerRobustToReaderOffsets(t *testing.T) {
	// Offsets differ per reader and are unknown; tracking must still work
	// because it uses phase *changes*.
	readers := testReaders()
	for i := range readers {
		readers[i].Offset = float64(i) * 1.7
		readers[i].PhaseNoise = 0
	}
	truth := geom.Point{X: 2.5, Y: 2.5}
	tr, err := NewTracker(readers, truth)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		truth = truth.Add(geom.Point{X: 0.02, Y: 0.01})
		phases := make([]float64, len(readers))
		for j, r := range readers {
			phases[j] = r.Phase(truth, nil)
		}
		if _, err := tr.Observe(phases); err != nil {
			t.Fatal(err)
		}
	}
	if d := geom.Dist(tr.Pos(), truth); d > 0.05 {
		t.Fatalf("final error %.3f m with unknown offsets", d)
	}
}

func TestSkeletonTracksTwoJoints(t *testing.T) {
	readers := testReaders()
	stream := rng.New(3)
	shoulder := geom.Point{X: 3, Y: 3}
	wrist := geom.Point{X: 3.5, Y: 3}
	sk, err := NewSkeleton(readers, []string{"shoulder", "wrist"}, []geom.Point{shoulder, wrist})
	if err != nil {
		t.Fatal(err)
	}
	// Arm raise: wrist arcs around the shoulder.
	armLen := geom.Dist(shoulder, wrist)
	for i := 0; i <= 45; i++ {
		ang := float64(i) * math.Pi / 2 / 45
		wrist = geom.Point{X: shoulder.X + armLen*math.Cos(ang), Y: shoulder.Y + armLen*math.Sin(ang)}
		phases := make([][]float64, 2)
		for j, joint := range []geom.Point{shoulder, wrist} {
			phases[j] = make([]float64, len(readers))
			for k, r := range readers {
				phases[j][k] = r.Phase(joint, stream)
			}
		}
		if _, err := sk.Observe(phases); err != nil {
			t.Fatal(err)
		}
	}
	// Final limb angle should be ~90°.
	got := sk.LimbAngle(0, 1)
	if math.Abs(got-math.Pi/2) > 0.15 {
		t.Fatalf("limb angle = %.3f rad, want ~π/2", got)
	}
}

func TestSkeletonValidation(t *testing.T) {
	if _, err := NewSkeleton(testReaders(), []string{"a"}, nil); err == nil {
		t.Fatal("mismatched names/starts accepted")
	}
}

// refTracker is the Tracker that keeps each reader's whole wrapped-phase
// history and unwraps all of it again on every reading. Tracker must give
// bit-equal estimates; TestTrackerMatchesRef holds it to that.
type refTracker struct {
	readers []Reader
	pos     geom.Point
	d0      []float64
	last    [][]float64
}

func newRefTracker(readers []Reader, start geom.Point) *refTracker {
	t := &refTracker{readers: readers, pos: start, d0: make([]float64, len(readers)), last: make([][]float64, len(readers))}
	for i, r := range readers {
		t.d0[i] = geom.Dist(r.Pos, start)
	}
	return t
}

func (t *refTracker) observe(phases []float64) geom.Point {
	for i, ph := range phases {
		t.last[i] = append(t.last[i], ph)
	}
	dists := make([]float64, len(t.readers))
	for i, r := range t.readers {
		wrapped := t.last[i]
		unwrapped := make([]float64, len(wrapped))
		unwrapped[0] = wrapped[0]
		for j := 1; j < len(wrapped); j++ {
			delta := wrapped[j] - wrapped[j-1]
			for delta > math.Pi {
				delta -= 2 * math.Pi
			}
			for delta < -math.Pi {
				delta += 2 * math.Pi
			}
			unwrapped[j] = unwrapped[j-1] + delta
		}
		dd := make([]float64, len(unwrapped))
		for j, th := range unwrapped {
			dd[j] = (th - unwrapped[0]) * r.Lambda / (4 * math.Pi)
		}
		dists[i] = t.d0[i] + dd[len(dd)-1]
	}
	p := t.pos
	for iter := 0; iter < 10; iter++ {
		var jtj [2][2]float64
		var jtr [2]float64
		for i, r := range t.readers {
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
	return p
}

// TestTrackerMatchesRef feeds random phase streams through Tracker and
// refTracker side by side: random walks read through noisy readers, wrapped
// phases whose steps cross ±π, and unreduced phases whose steps span
// several turns. Every estimate must be bit-equal at every step.
func TestTrackerMatchesRef(t *testing.T) {
	stream := rng.New(28)
	for trial := 0; trial < 60; trial++ {
		readers := testReaders()
		for i := range readers {
			readers[i].Offset = stream.Float64() * 2 * math.Pi
		}
		start := geom.Point{X: 1 + 4*stream.Float64(), Y: 1 + 3*stream.Float64()}
		tr, err := NewTracker(readers, start)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefTracker(readers, start)
		truth := start
		step := 0.005 + 0.1*stream.Float64() // up to ~λ/3 per reading
		phases := make([]float64, len(readers))
		for n := 0; n < 150; n++ {
			truth = truth.Add(geom.Point{X: step * stream.NormMeanStd(0, 1), Y: step * stream.NormMeanStd(0, 1)})
			for i, r := range readers {
				switch trial % 3 {
				case 0:
					phases[i] = r.Phase(truth, stream)
				case 1:
					// Wrapped phases with steps of any size and sign.
					phases[i] = math.Mod(phases[i]+(stream.Float64()-0.5)*6*math.Pi+8*math.Pi, 2*math.Pi)
				default:
					// Unreduced phases, whose steps wrap several times.
					phases[i] = (stream.Float64() - 0.5) * 20 * math.Pi
				}
			}
			got, err := tr.Observe(phases)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.observe(phases)
			if math.Float64bits(got.X) != math.Float64bits(want.X) || math.Float64bits(got.Y) != math.Float64bits(want.Y) {
				t.Fatalf("trial %d reading %d: estimate %v, reference %v", trial, n, got, want)
			}
		}
	}
}
