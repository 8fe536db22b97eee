// Package geom provides the small amount of 2-D geometry shared by the
// zeiot simulators: points, distances, and segment/circle intersection used
// to model humans as attenuating obstacles on radio links.
package geom

import "math"

// Point is a position in metres.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Add returns p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p-q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by a.
func (p Point) Scale(a float64) Point { return Point{a * p.X, a * p.Y} }

// Norm returns the Euclidean norm of p treated as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// segmentOffset returns the vector from c to the point of segment ab
// nearest to it.
func segmentOffset(a, b, c Point) (dx, dy float64) {
	ab := b.Sub(a)
	den := ab.X*ab.X + ab.Y*ab.Y
	if den == 0 {
		return a.X - c.X, a.Y - c.Y
	}
	t := ((c.X-a.X)*ab.X + (c.Y-a.Y)*ab.Y) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	closest := a.Add(ab.Scale(t))
	return closest.X - c.X, closest.Y - c.Y
}

// circleBand is the relative half-width of the band around r² inside
// which SegmentIntersectsCircle falls back to math.Hypot. It is far wider
// than the few-ulp errors of dx²+dy², r² and Hypot, so the squares decide
// every point outside it, and so narrow that almost no point falls in it.
const circleBand = 0x1p-30

// SegmentIntersectsCircle reports whether segment ab passes within radius r
// of centre c — the test used to decide whether a person standing at c
// shadows the radio link a→b. It returns math.Hypot(dx, dy) <= r for every
// input, where (dx, dy) is the offset from c to the nearest point of ab.
// For r in [2^-500, 2^500] it decides by comparing dx²+dy² with r², whose
// errors cannot cross the relative circleBand around r², and calls
// math.Hypot only inside the band or when dx²+dy² is NaN. Any other r goes
// straight to Hypot.
func SegmentIntersectsCircle(a, b, c Point, r float64) bool {
	dx, dy := segmentOffset(a, b, c)
	if r >= 0x1p-500 && r <= 0x1p500 {
		d2, r2 := dx*dx+dy*dy, r*r
		if d2 < r2*(1-circleBand) {
			return true
		}
		if d2 > r2*(1+circleBand) {
			return false
		}
	}
	return math.Hypot(dx, dy) <= r
}

// orient returns the orientation of the triple (a, b, c): positive for
// counter-clockwise, negative for clockwise, zero for collinear.
func orient(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

func onSegment(a, b, p Point) bool {
	return math.Min(a.X, b.X)-1e-12 <= p.X && p.X <= math.Max(a.X, b.X)+1e-12 &&
		math.Min(a.Y, b.Y)-1e-12 <= p.Y && p.Y <= math.Max(a.Y, b.Y)+1e-12
}

// SegmentsIntersect reports whether segments ab and cd intersect
// (including touching endpoints and collinear overlap) — the test used to
// decide whether a wall blocks a radio link.
func SegmentsIntersect(a, b, c, d Point) bool {
	o1 := orient(a, b, c)
	o2 := orient(a, b, d)
	o3 := orient(c, d, a)
	o4 := orient(c, d, b)
	if ((o1 > 0 && o2 < 0) || (o1 < 0 && o2 > 0)) &&
		((o3 > 0 && o4 < 0) || (o3 < 0 && o4 > 0)) {
		return true
	}
	switch {
	case o1 == 0 && onSegment(a, b, c):
		return true
	case o2 == 0 && onSegment(a, b, d):
		return true
	case o3 == 0 && onSegment(c, d, a):
		return true
	case o4 == 0 && onSegment(c, d, b):
		return true
	}
	return false
}

// ClampInt limits v to [lo, hi].
func ClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
