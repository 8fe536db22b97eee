package tensor

import (
	"math"
	"slices"
	"testing"
)

// TestStridesRowMajor pins the layout every kernel that indexes Data
// relies on: element (i, j, k) of a (2,3,4) tensor sits at 12i + 4j + k.
func TestStridesRowMajor(t *testing.T) {
	tn := New(2, 3, 4)
	for i := range tn.Data() {
		tn.Data()[i] = float64(i)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				if got := tn.At(i, j, k); got != float64(12*i+4*j+k) {
					t.Fatalf("At(%d,%d,%d) = %v, want %d", i, j, k, got, 12*i+4*j+k)
				}
			}
		}
	}
	tn.Set(99, 1, 2, 3)
	if tn.Data()[23] != 99 {
		t.Fatal("Set did not write the row-major offset")
	}
}

func TestEnsureReusesStorage(t *testing.T) {
	a := New(4, 4)
	for i := range a.data {
		a.data[i] = 3
	}
	b := Ensure(a, 2, 8)
	if b != a {
		t.Fatal("Ensure did not reuse a same-volume tensor")
	}
	if b.Dim(0) != 2 || b.Dim(1) != 8 {
		t.Fatalf("Ensure shape = %v", b.Shape())
	}
	if b.At(0, 0) != 3 {
		t.Fatal("Ensure clobbered contents")
	}
	// Smaller volume reuses the same backing array.
	c := Ensure(b, 3)
	if c != b || c.Size() != 3 {
		t.Fatalf("Ensure shrink failed: %v", c.Shape())
	}
	// Larger volume must allocate.
	d := Ensure(c, 100)
	if d == c {
		t.Fatal("Ensure reused too-small storage")
	}
	for _, v := range d.Data() {
		if v != 0 {
			t.Fatal("fresh Ensure tensor not zero-filled")
		}
	}
	// Nil receiver allocates.
	e := Ensure(nil, 2, 2)
	if e == nil || e.Size() != 4 {
		t.Fatal("Ensure(nil) failed")
	}
}

// TestEnsureRankChangeResetsStrides pins the scratch-reuse contract the
// batched CNN kernels depend on: reusing a backing array under a shape of
// equal volume but different rank must leave the new shape, so At addresses
// the new layout's row-major strides and not the old one's.
func TestEnsureRankChangeResetsStrides(t *testing.T) {
	a := New(24)
	for i := range a.Data() {
		a.Data()[i] = float64(i)
	}
	b := Ensure(a, 2, 3, 4) // 1-d -> 3-d, same volume
	if b != a {
		t.Fatal("Ensure did not reuse equal-volume storage across a rank change")
	}
	if !slices.Equal(b.Shape(), []int{2, 3, 4}) || b.At(1, 2, 3) != 23 || b.At(1, 0, 2) != 14 {
		t.Fatalf("after rank-up: shape %v, At(1,2,3)=%v, At(1,0,2)=%v", b.Shape(), b.At(1, 2, 3), b.At(1, 0, 2))
	}
	c := Ensure(b, 4, 6) // 3-d -> 2-d, same volume
	if c != b || !slices.Equal(c.Shape(), []int{4, 6}) || c.At(3, 5) != 23 {
		t.Fatalf("after rank-down: shape %v, At(3,5)=%v", c.Shape(), c.At(3, 5))
	}
	d := Ensure(c, 24) // back to 1-d
	if d != c || !slices.Equal(d.Shape(), []int{24}) || d.At(23) != 23 {
		t.Fatalf("after rank-down to 1-d: shape %v", d.Shape())
	}
}

// TestEnsureSameRankReshapeAllocFree pins the in-place meta rewrite: a
// scratch buffer alternating between same-rank shapes (the im2col patch on
// a partial final block) must not allocate.
func TestEnsureSameRankReshapeAllocFree(t *testing.T) {
	buf := New(6, 8)
	allocs := testing.AllocsPerRun(100, func() {
		buf = Ensure(buf, 6, 5)
		buf = Ensure(buf, 6, 8)
	})
	if allocs != 0 {
		t.Fatalf("same-rank Ensure reshape allocated %v times per run", allocs)
	}
	if !slices.Equal(buf.Shape(), []int{6, 8}) {
		t.Fatalf("shape after alternating reshapes = %v, want [6 8]", buf.Shape())
	}
}

func TestMatMulAddIntoAccumulates(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{1, 0, -1, 2, 0.5, -3}, 3, 2)
	dst := FromSlice([]float64{10, 20, 30, 40}, 2, 2)
	got := MatMulAddInto(dst, a, b)
	if got != dst {
		t.Fatal("MatMulAddInto did not return dst")
	}
	// dst + a×b computed by the reference scalar loop.
	want := FromSlice([]float64{10, 20, 30, 40}, 2, 2)
	for i := 0; i < 2; i++ {
		for p := 0; p < 3; p++ {
			for j := 0; j < 2; j++ {
				want.Set(want.At(i, j)+a.At(i, p)*b.At(p, j), i, j)
			}
		}
	}
	if !Equal(want, got, 0) {
		t.Fatalf("MatMulAddInto = %v, want %v", got, want)
	}
}

// TestMatMulAddIntoMatchesScalarOrder verifies the unrolled kernel is
// bit-identical to the naive p-ascending scalar loop on awkward inner sizes
// (k not a multiple of the unroll factor) and adversarial values.
func TestMatMulAddIntoMatchesScalarOrder(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13} {
		m, n := 3, 4
		a, b := New(m, k), New(k, n)
		for i := range a.Data() {
			a.Data()[i] = math.Sin(float64(3*i+1)) * 1e3
		}
		for i := range b.Data() {
			b.Data()[i] = math.Cos(float64(7*i+2)) / 3
		}
		ref := New(m, n)
		for i := range ref.Data() {
			ref.Data()[i] = float64(i) - 5.5
		}
		dst := ref.Clone()
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				av := a.At(i, p)
				for j := 0; j < n; j++ {
					ref.Set(ref.At(i, j)+av*b.At(p, j), i, j)
				}
			}
		}
		MatMulAddInto(dst, a, b)
		if !Equal(ref, dst, 0) {
			t.Fatalf("k=%d: MatMulAddInto diverged from scalar order:\n got %v\nwant %v", k, dst, ref)
		}
	}
}

// TestMatMulIntoMatchesMatMul checks MatMulInto against the scalar matrix
// product, and that it reuses and clears its destination.
func TestMatMulIntoMatchesMatMul(t *testing.T) {
	a := FromSlice([]float64{1, 2, 0, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	want := New(2, 2)
	for i := 0; i < 2; i++ {
		for p := 0; p < 3; p++ {
			for j := 0; j < 2; j++ {
				want.Set(want.At(i, j)+a.At(i, p)*b.At(p, j), i, j)
			}
		}
	}
	buf := FromSlice([]float64{42, 42, 42, 42}, 2, 2) // must be cleared by MatMulInto
	got := MatMulInto(buf, a, b)
	if got != buf || !Equal(want, got, 0) {
		t.Fatalf("MatMulInto = %v, want %v", got, want)
	}
}
