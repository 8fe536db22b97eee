package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d equal draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	a := root.Split("alpha")
	b := root.Split("beta")
	if a.Uint64() == b.Uint64() {
		t.Fatal("substreams with different keys produced equal first draws")
	}
	// Splitting must be deterministic given parent state and key.
	a2 := New(7).Split("alpha")
	a3 := New(7).Split("alpha")
	if a2.Uint64() != a3.Uint64() {
		t.Fatal("splitting is not deterministic")
	}
}

func TestSplitSameKeyTwiceDiffers(t *testing.T) {
	// Splitting advances the parent, so re-using a key in a loop yields
	// fresh independent streams instead of silently repeating draws.
	root := New(7)
	a := root.Split("worker")
	b := root.Split("worker")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("same-key splits repeated %d of 64 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(9)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("gaussian mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("gaussian variance = %v, want ~1", variance)
	}
}

func TestExpMean(t *testing.T) {
	s := New(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(2.0)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("exp(rate=2) mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(17)
	if err := quick.Check(func(raw uint8) bool {
		n := int(raw%32) + 1
		p := s.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(29)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate = %v", got)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Stream
	_ = s.Uint64() // must not panic
	_ = s.Float64()
}

// TestStateRoundTrip pins the checkpointing contract: a stream restored from
// a State snapshot reproduces the original stream's future draws exactly,
// including the cached Box-Muller spare (snapshotting between the two halves
// of a Gaussian pair must not drop or replay the spare).
func TestStateRoundTrip(t *testing.T) {
	s := New(42)
	s.Norm() // leaves a valid spare cached
	snap := s.State()
	if !snap.SpareOK {
		t.Fatal("expected a cached Box-Muller spare after one Norm draw")
	}
	r := FromState(snap)
	for i := 0; i < 1000; i++ {
		if a, b := s.Norm(), r.Norm(); a != b {
			t.Fatalf("draw %d: original %v, restored %v", i, a, b)
		}
		if a, b := s.Uint64(), r.Uint64(); a != b {
			t.Fatalf("draw %d: Uint64 diverged", i)
		}
	}
	// SetState rewinds: replaying from the snapshot repeats the same perm.
	s.SetState(snap)
	r.SetState(snap)
	p1, p2 := s.Perm(257), r.Perm(257)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("perm diverged at %d after SetState", i)
		}
	}
}
