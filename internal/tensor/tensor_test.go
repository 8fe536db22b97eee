package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size = %d", x.Size())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New tensor not zero-filled")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4, 5)
	x.Set(7.5, 2, 1, 3)
	if got := x.At(2, 1, 3); got != 7.5 {
		t.Fatalf("At = %v", got)
	}
	// Row-major layout: offset = (2*4+1)*5 + 3 = 48.
	if x.Data()[48] != 7.5 {
		t.Fatal("row-major offset wrong")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceLengthChecked(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched FromSlice")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMulInto(nil, a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !Equal(c, want, 1e-12) {
		t.Fatalf("MatMulInto = %v", c)
	}
}

func TestMatMulIdentity(t *testing.T) {
	err := quick.Check(func(vals [9]float64) bool {
		data := make([]float64, 9)
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			data[i] = math.Mod(v, 100)
		}
		a := FromSlice(data, 3, 3)
		id := New(3, 3)
		for i := 0; i < 3; i++ {
			id.Set(1, i, i)
		}
		return Equal(MatMulInto(nil, a, id), a, 1e-9) && Equal(MatMulInto(nil, id, a), a, 1e-9)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestArithmetic(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	a.AddInPlace(b)
	if a.At(2) != 33 {
		t.Fatalf("AddInPlace: %v", a)
	}
	a.ScaleInPlace(2)
	if a.At(1) != 44 {
		t.Fatalf("ScaleInPlace: %v", a)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	New(2, 2).AddInPlace(New(4))
}

func TestArgmax(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		v    []float64
		want int
	}{
		{[]float64{3, -1, 4, 1}, 2},
		{[]float64{4, -1, 4}, 0}, // the first of equal maxima
		{[]float64{nan, 1, 2}, 2},
		{[]float64{1, nan, 0}, 0},
		{nil, 0},
	} {
		if got := Argmax(tc.v); got != tc.want {
			t.Errorf("Argmax(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestEqualTolerance(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{1.0005, 2}, 2)
	if !Equal(a, b, 1e-3) {
		t.Fatal("Equal too strict")
	}
	if Equal(a, b, 1e-6) {
		t.Fatal("Equal too lax")
	}
	if Equal(a, New(2, 1), 1) {
		t.Fatal("Equal ignores shape")
	}
}

// Property: MatMul is associative for random small matrices.
func TestMatMulAssociative(t *testing.T) {
	err := quick.Check(func(av, bv, cv [4]float64) bool {
		clip := func(vals [4]float64) []float64 {
			out := make([]float64, 4)
			for i, v := range vals {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0.5
				}
				out[i] = math.Mod(v, 10)
			}
			return out
		}
		a := FromSlice(clip(av), 2, 2)
		b := FromSlice(clip(bv), 2, 2)
		c := FromSlice(clip(cv), 2, 2)
		left := MatMulInto(nil, MatMulInto(nil, a, b), c)
		right := MatMulInto(nil, a, MatMulInto(nil, b, c))
		return Equal(left, right, 1e-6)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
