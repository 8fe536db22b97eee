package csi

import (
	"math"
	"math/cmplx"
	"testing"

	"zeiot/internal/rng"
)

func randomMatrix(s *rng.Stream, rows, cols int) Matrix {
	m := NewMatrix(rows, cols)
	for i := range m {
		for j := range m[i] {
			m[i][j] = complex(s.NormMeanStd(0, 1), s.NormMeanStd(0, 1))
		}
	}
	return m
}

func maxAbsDiff(a, b Matrix) float64 {
	d := 0.0
	for i := range a {
		for j := range a[i] {
			d = math.Max(d, cmplx.Abs(a[i][j]-b[i][j]))
		}
	}
	return d
}

func TestHermitianEigReconstruction(t *testing.T) {
	s := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		n := 2 + s.Intn(4)
		h := randomMatrix(s, n+1, n)
		a := h.ConjTranspose().Mul(h) // Hermitian PSD
		vals, vecs := HermitianEig(a)
		// Eigenvalues descending and non-negative.
		for i := 0; i < n; i++ {
			if vals[i] < -1e-9 {
				t.Fatalf("negative eigenvalue %v of PSD matrix", vals[i])
			}
			if i > 0 && vals[i] > vals[i-1]+1e-9 {
				t.Fatalf("eigenvalues not descending: %v", vals)
			}
		}
		// V unitary: VᴴV = I.
		ident := vecs.ConjTranspose().Mul(vecs)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := complex(0, 0)
				if i == j {
					want = 1
				}
				if cmplx.Abs(ident[i][j]-want) > 1e-8 {
					t.Fatalf("VᴴV not identity at (%d,%d): %v", i, j, ident[i][j])
				}
			}
		}
		// A V = V Λ.
		av := a.Mul(vecs)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if cmplx.Abs(av[i][j]-vecs[i][j]*complex(vals[j], 0)) > 1e-7 {
					t.Fatalf("AV != VΛ at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestBeamformingVOrthonormal(t *testing.T) {
	s := rng.New(2)
	h := randomMatrix(s, 3, 4)
	v := BeamformingV(h, 3)
	if v.Rows() != 4 || v.Cols() != 3 {
		t.Fatalf("V shape %dx%d", v.Rows(), v.Cols())
	}
	g := v.ConjTranspose().Mul(v)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := complex(0, 0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(g[i][j]-want) > 1e-8 {
				t.Fatalf("V columns not orthonormal at (%d,%d): %v", i, j, g[i][j])
			}
		}
	}
}

func TestNumAngles(t *testing.T) {
	cases := []struct{ m, n, phi, psi int }{
		{2, 1, 1, 1},
		{2, 2, 1, 1},
		{3, 2, 3, 3},
		{4, 2, 5, 5},
		{4, 3, 6, 6},
		{4, 4, 6, 6},
	}
	for _, c := range cases {
		phi, psi := NumAngles(c.m, c.n)
		if phi != c.phi || psi != c.psi {
			t.Fatalf("NumAngles(%d,%d) = (%d,%d), want (%d,%d)", c.m, c.n, phi, psi, c.phi, c.psi)
		}
	}
}

// TestCompressReconstructRoundTrip is the core 802.11ac correctness
// property: decomposing a beamforming matrix into Givens angles and
// rebuilding it recovers the matrix up to the per-column common phases.
func TestCompressReconstructRoundTrip(t *testing.T) {
	s := rng.New(3)
	for trial := 0; trial < 30; trial++ {
		nr := 2 + s.Intn(3) // 2..4
		nt := nr + 1
		nc := 1 + s.Intn(nr)
		h := randomMatrix(s, nr, nt)
		v := BeamformingV(h, nc)
		// Normalize columns like Compress step 0 so comparison is direct.
		v0 := v.Clone()
		for j := 0; j < nc; j++ {
			rot := cmplx.Exp(complex(0, -cmplx.Phase(v0[nt-1][j])))
			for i := 0; i < nt; i++ {
				v0[i][j] *= rot
			}
		}
		a := Compress(v)
		got := Reconstruct(a)
		if d := maxAbsDiff(v0, got); d > 1e-8 {
			t.Fatalf("trial %d (%dx%d): reconstruction error %v", trial, nt, nc, d)
		}
	}
}

func TestAngleRanges(t *testing.T) {
	s := rng.New(4)
	for trial := 0; trial < 20; trial++ {
		h := randomMatrix(s, 3, 4)
		a := Compress(BeamformingV(h, 3))
		phiN, psiN := NumAngles(4, 3)
		if len(a.Phi) != phiN || len(a.Psi) != psiN {
			t.Fatalf("angle counts %d/%d, want %d/%d", len(a.Phi), len(a.Psi), phiN, psiN)
		}
		for _, p := range a.Phi {
			if p < 0 || p >= 2*math.Pi+1e-12 {
				t.Fatalf("phi out of range: %v", p)
			}
		}
		for _, p := range a.Psi {
			if p < -1e-9 || p > math.Pi/2+1e-9 {
				t.Fatalf("psi out of range: %v", p)
			}
		}
	}
}

func TestPaperFeedbackIs624Features(t *testing.T) {
	fb := PaperFeedback()
	if got := fb.NumFeatures(); got != 624 {
		t.Fatalf("NumFeatures = %d, want 624 (the paper's extraction)", got)
	}
}

func TestFeaturesShapeAndDeterminism(t *testing.T) {
	p := PaperPatterns()[0]
	sc := DefaultRoom(p)
	pos := SevenPositions()[2]
	f1, err := sc.Feedback.Features(sc.Snapshot(pos, rng.New(9)))
	if err != nil {
		t.Fatal(err)
	}
	if len(f1) != 624 {
		t.Fatalf("feature length = %d", len(f1))
	}
	f2, err := sc.Feedback.Features(sc.Snapshot(pos, rng.New(9)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("same seed produced different features")
		}
	}
	for _, v := range f1 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("NaN/Inf feature")
		}
	}
}

func TestFeaturesValidation(t *testing.T) {
	fb := PaperFeedback()
	if _, err := fb.Features(nil); err == nil {
		t.Fatal("wrong subcarrier count accepted")
	}
	bad := make([]Matrix, fb.Subcarriers)
	for i := range bad {
		bad[i] = NewMatrix(2, 2)
	}
	if _, err := fb.Features(bad); err == nil {
		t.Fatal("wrong channel shape accepted")
	}
}

func TestPositionsSeparableInFeatureSpace(t *testing.T) {
	// Different person positions must move the features more than repeated
	// snapshots at the same position (walking pattern).
	p := PaperPatterns()[0]
	sc := DefaultRoom(p)
	s := rng.New(10)
	pos := SevenPositions()
	f := func(i int, str *rng.Stream) []float64 {
		feat, err := sc.Feedback.Features(sc.Snapshot(pos[i], str))
		if err != nil {
			t.Fatal(err)
		}
		return feat
	}
	dist := func(a, b []float64) float64 {
		d := 0.0
		for i := range a {
			// Angles wrap; compare on the circle.
			dd := math.Abs(a[i] - b[i])
			if dd > math.Pi {
				dd = 2*math.Pi - dd
			}
			d += dd * dd
		}
		return math.Sqrt(d)
	}
	same := dist(f(0, s.Split("a")), f(0, s.Split("b")))
	diff := dist(f(0, s.Split("c")), f(4, s.Split("d")))
	if diff <= same {
		t.Fatalf("cross-position distance %v <= same-position %v", diff, same)
	}
}

func TestSixPatterns(t *testing.T) {
	ps := PaperPatterns()
	if len(ps) != 6 {
		t.Fatalf("patterns = %d, want 6", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Fatalf("duplicate pattern %q", p.Name)
		}
		seen[p.Name] = true
	}
}

// Reconstruct rebuilds the beamforming matrix (up to the per-column common
// phases removed in step 0) from a compressed report: the inverse of
// Compress, which the round-trip test holds Compress to.
func Reconstruct(a Angles) Matrix {
	m, n := a.M, a.N
	v := NewMatrix(m, n)
	for i := 0; i < n; i++ {
		v[i][i] = 1
	}
	k := n
	if m-1 < k {
		k = m - 1
	}
	// Walk the decomposition backwards, applying inverse operations.
	phiIdx := len(a.Phi)
	psiIdx := len(a.Psi)
	for i := k - 1; i >= 0; i-- {
		nPsi := m - 1 - i
		nPhi := m - 1 - i
		psis := a.Psi[psiIdx-nPsi : psiIdx]
		psiIdx -= nPsi
		phis := a.Phi[phiIdx-nPhi : phiIdx]
		phiIdx -= nPhi
		for li := len(psis) - 1; li >= 0; li-- {
			l := i + 1 + li
			c := complex(math.Cos(psis[li]), 0)
			s := complex(math.Sin(psis[li]), 0)
			for j := 0; j < n; j++ {
				vi, vl := v[i][j], v[l][j]
				v[i][j] = c*vi - s*vl
				v[l][j] = s*vi + c*vl
			}
		}
		for li := len(phis) - 1; li >= 0; li-- {
			l := i + li
			rot := cmplx.Exp(complex(0, phis[li]))
			for j := 0; j < n; j++ {
				v[l][j] *= rot
			}
		}
	}
	return v
}
