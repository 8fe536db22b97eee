package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	if d := Dist(Point{0, 0}, Point{3, 4}); d != 5 {
		t.Fatalf("Dist = %v", d)
	}
}

func TestVectorOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Fatalf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Fatalf("Scale = %v", got)
	}
	if n := (Point{3, 4}).Norm(); n != 5 {
		t.Fatalf("Norm = %v", n)
	}
}

func TestSegmentPointDist(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 0}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{5, 3}, 3},  // perpendicular inside
		{Point{-4, 3}, 5}, // beyond a
		{Point{13, 4}, 5}, // beyond b
		{Point{5, 0}, 0},  // on segment
		{Point{0, 0}, 0},  // at endpoint
	}
	for _, tc := range cases {
		if got := SegmentPointDist(a, b, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("SegmentPointDist(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestDegenerateSegment(t *testing.T) {
	a := Point{2, 2}
	if got := SegmentPointDist(a, a, Point{5, 6}); got != 5 {
		t.Fatalf("degenerate segment dist = %v", got)
	}
}

func TestSegmentIntersectsCircle(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 0}
	if !SegmentIntersectsCircle(a, b, Point{5, 0.2}, 0.3) {
		t.Fatal("person on link not detected")
	}
	if SegmentIntersectsCircle(a, b, Point{5, 2}, 0.3) {
		t.Fatal("person far from link detected")
	}
	if SegmentIntersectsCircle(a, b, Point{-2, 0}, 0.3) {
		t.Fatal("person behind endpoint detected")
	}
}

func TestSegmentPointDistSymmetry(t *testing.T) {
	// Property: distance is symmetric under swapping segment endpoints.
	err := quick.Check(func(ax, ay, bx, by, cx, cy float64) bool {
		clip := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 100)
		}
		a := Point{clip(ax), clip(ay)}
		b := Point{clip(bx), clip(by)}
		c := Point{clip(cx), clip(cy)}
		d1 := SegmentPointDist(a, b, c)
		d2 := SegmentPointDist(b, a, c)
		return math.Abs(d1-d2) < 1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Fatal("Clamp wrong")
	}
}

// refSegmentPointDist is SegmentPointDist as written before it shared
// segmentOffset with SegmentIntersectsCircle.
func refSegmentPointDist(a, b, c Point) float64 {
	ab := b.Sub(a)
	den := ab.X*ab.X + ab.Y*ab.Y
	if den == 0 {
		return Dist(a, c)
	}
	t := ((c.X-a.X)*ab.X + (c.Y-a.Y)*ab.Y) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	closest := a.Add(ab.Scale(t))
	return Dist(closest, c)
}

// checkCircleOracle fails unless SegmentPointDist matches its reference bit
// for bit and SegmentIntersectsCircle(a, b, c, r) equals
// SegmentPointDist(a, b, c) <= r, for r and for the radii at and one ulp
// either side of the distance.
func checkCircleOracle(t *testing.T, a, b, c Point, r float64) {
	t.Helper()
	d := SegmentPointDist(a, b, c)
	if ref := refSegmentPointDist(a, b, c); math.Float64bits(d) != math.Float64bits(ref) {
		t.Fatalf("SegmentPointDist(%v, %v, %v) = %v, reference %v", a, b, c, d, ref)
	}
	for _, r := range []float64{r, d, math.Nextafter(d, math.Inf(1)), math.Nextafter(d, math.Inf(-1))} {
		if got, want := SegmentIntersectsCircle(a, b, c, r), d <= r; got != want {
			t.Fatalf("SegmentIntersectsCircle(%v, %v, %v, %v) = %v, distance %v", a, b, c, r, got, d)
		}
	}
}

func TestSegmentIntersectsCircleMatchesDistance(t *testing.T) {
	s := rand.New(rand.NewSource(1))
	radii := []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1),
		0x1p-500, math.Nextafter(0x1p-500, 0), 0x1p500, math.Nextafter(0x1p500, math.Inf(1)),
		math.SmallestNonzeroFloat64, math.MaxFloat64}
	for _, scale := range []float64{1, 1e-150, 1e150, 1e-300, 1e300} {
		for i := 0; i < 2000; i++ {
			pt := func() Point { return Point{scale * s.NormFloat64(), scale * s.NormFloat64()} }
			a, b, c := pt(), pt(), pt()
			switch i % 5 {
			case 1:
				b = a // degenerate segment
			case 2:
				c = a // centre on an endpoint
			case 3:
				b = Point{a.X, math.Nextafter(a.Y, math.Inf(1))} // den underflows
			}
			d := SegmentPointDist(a, b, c)
			checkCircleOracle(t, a, b, c, d*(1+circleBand))
			checkCircleOracle(t, a, b, c, d*(1-circleBand))
			checkCircleOracle(t, a, b, c, scale*s.ExpFloat64())
			checkCircleOracle(t, a, b, c, radii[i%len(radii)])
		}
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, p := range []Point{{inf, 0}, {0, -inf}, {nan, 0}, {0, nan}, {inf, inf}} {
		for _, r := range radii {
			checkCircleOracle(t, Point{0, 0}, Point{1, 1}, p, r)
			checkCircleOracle(t, p, Point{1, 1}, Point{0, 0}, r)
			checkCircleOracle(t, p, p, Point{0, 0}, r)
		}
	}
}

func FuzzSegmentIntersectsCircle(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 0.0, 5.0, 0.3, 0.3)
	f.Add(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0)
	f.Add(1e150, -1e150, -1e150, 1e150, 3e149, 2e149, 1e149)
	f.Add(1e-150, 2e-150, -1e-150, 0.0, 0.0, 1e-150, 1e-151)
	f.Add(0.0, 0.0, 1.0, 0.0, 0.5, 1e-200, 0.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, r float64) {
		checkCircleOracle(t, Point{ax, ay}, Point{bx, by}, Point{cx, cy}, r)
	})
}
