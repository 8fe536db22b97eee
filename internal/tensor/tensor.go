// Package tensor implements a small dense float64 tensor used as the
// numeric substrate for the zeiot CNN stack.
//
// Tensors are dense and row-major with explicit shapes; the package provides
// only the operations the CNN and the sensing pipelines need (element
// access, arithmetic, matrix multiply, argmax, simple reductions). It
// favours clarity and determinism over BLAS-grade speed. Hot loops index the
// row-major storage that Data returns directly, and Ensure and the *Into
// kernels reuse storage, so steady-state callers allocate nothing.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major float64 array with an explicit shape.
type Tensor struct {
	shape []int
	data  []float64
}

// shapeMeta copies shape into a slice the tensor owns.
func shapeMeta(shape []int) []int {
	s := make([]int, len(shape))
	copy(s, shape)
	return s
}

func volume(shape []int) int {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return n
}

// New returns a zero-filled tensor with the given shape. Dimensions must be
// positive.
func New(shape ...int) *Tensor {
	n := volume(shape)
	return &Tensor{shape: shapeMeta(shape), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{shape: shapeMeta(shape), data: data}
	if len(data) != t.Size() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return t
}

// Ensure returns a tensor of the given shape for use as a reusable scratch
// buffer: when t is non-nil and its storage capacity suffices, t is reshaped
// in place and returned (existing contents are preserved up to the new
// length; callers needing zeros must Zero it). Otherwise a fresh zero-filled
// tensor is allocated. Typical use: `buf = tensor.Ensure(buf, shape...)`.
func Ensure(t *Tensor, shape ...int) *Tensor {
	// Compute the volume without calling volume(): its panic path would
	// make shape escape and force a heap allocation of the variadic temp
	// on every call from the CNN hot loops.
	n := 1
	bad := false
	for _, d := range shape {
		if d <= 0 {
			bad = true
		}
		n *= d
	}
	if bad || t == nil || cap(t.data) < n {
		// Cold path: copy shape so the caller's variadic temp stays on the
		// stack; New validates the dimensions.
		return New(append([]int(nil), shape...)...)
	}
	if !shapeEq(t.shape, shape) {
		if len(shape) == len(t.shape) {
			// Same rank: rewrite the shape in place, so scratch buffers
			// that alternate between shapes (e.g. an im2col patch whose
			// batch dimension shrinks on the final partial block) stay
			// allocation-free.
			copy(t.shape, shape)
		} else {
			t.shape = shapeMeta(shape)
		}
	}
	t.data = t.data[:n]
	return t
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.shape {
		n *= d
	}
	return n
}

// Data returns the underlying storage. Mutations are visible to the tensor.
func (t *Tensor) Data() []float64 { return t.data }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for %d-d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, v := range idx {
		if v < 0 || v >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", v, i, t.shape[i]))
		}
		off = off*t.shape[i] + v
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	clear(t.data)
}

// AddInPlace adds other element-wise into t. Shapes must match exactly.
func (t *Tensor) AddInPlace(other *Tensor) {
	t.mustSameShape(other)
	for i := range t.data {
		t.data[i] += other.data[i]
	}
}

// ScaleInPlace multiplies every element by a.
func (t *Tensor) ScaleInPlace(a float64) {
	for i := range t.data {
		t.data[i] *= a
	}
}

func (t *Tensor) mustSameShape(other *Tensor) {
	if !SameShape(t, other) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.shape, other.shape))
	}
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool { return shapeEq(a.shape, b.shape) }

// MatMulInto computes a×b for 2-D tensors of shapes (m,k) and (k,n) into
// dst, reusing dst's storage when possible (pass nil to allocate), skipping
// zero elements of a. It returns the result tensor.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic("tensor: MatMul requires 2-d tensors")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, k2))
	}
	out := Ensure(dst, m, n)
	out.Zero()
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// MatMulAddInto accumulates a×b into dst for 2-D tensors of shapes (m,k),
// (k,n) and (m,n): dst is NOT zeroed first, so callers can seed it (e.g. with
// a broadcast bias) before the product is added. Unlike MatMulInto it does
// not skip zero elements of a: every one of the k terms is added, in
// ascending p order, one term at a time per output element. That makes the
// per-element accumulation order identical to a scalar loop
// `for p { dst[i][j] += a[i][p]*b[p][j] }`, which is what the packed CNN
// kernels rely on for bit-identity with their per-sample reference loops.
func MatMulAddInto(dst, a, b *Tensor) *Tensor {
	if dst.Dims() != 2 || a.Dims() != 2 || b.Dims() != 2 {
		panic("tensor: MatMulAddInto requires 2-d tensors")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulAddInto inner dims %d vs %d", k, k2))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulAddInto dst shape %v, want (%d,%d)", dst.shape, m, n))
	}
	bd := b.data
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := dst.data[i*n : (i+1)*n]
		p := 0
		// Unroll by 4 over the inner dimension: four a-coefficients are held
		// in registers and each output element receives its four terms as
		// sequential dependent adds, so the per-element order matches the
		// scalar loop exactly while each pass streams b only once per four
		// terms' worth of work.
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			b0 := bd[p*n : p*n+n]
			b1 := bd[(p+1)*n : (p+1)*n+n]
			b2 := bd[(p+2)*n : (p+2)*n+n]
			b3 := bd[(p+3)*n : (p+3)*n+n]
			for j := range orow {
				v := orow[j]
				v += a0 * b0[j]
				v += a1 * b1[j]
				v += a2 * b2[j]
				v += a3 * b3[j]
				orow[j] = v
			}
		}
		for ; p < k; p++ {
			av := arow[p]
			brow := bd[p*n : p*n+n]
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
	return dst
}

// reluBits is the branchless ReLU select used by the CNN layers: v for
// v > 0, +0.0 otherwise (negatives, ±0 and negative NaNs all map to +0).
func reluBits(v float64) float64 {
	t := math.Float64bits(v)
	keep := ((t | -t) >> 63) &^ (t >> 63)
	return math.Float64frombits(t & -keep)
}

// MatMulBiasInto computes dst = bias + a×b for 2-D tensors of shapes (m,k),
// (k,n) and (m,n), with bias[i] broadcast across row i. Each output element
// is seeded with its bias and then receives its k terms in ascending p
// order, one term at a time — the same per-element elementary order as
// seeding dst with the bias and calling MatMulAddInto, so the packed conv
// kernel stays bit-identical to its per-sample reference loop. When relu is
// true the finished value is passed through the ReLU bit-mask select as it
// is stored, fusing the activation into the GEMM's final write.
func MatMulBiasInto(dst, a, b *Tensor, bias []float64, relu bool) *Tensor {
	if dst.Dims() != 2 || a.Dims() != 2 || b.Dims() != 2 {
		panic("tensor: MatMulBiasInto requires 2-d tensors")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulBiasInto inner dims %d vs %d", k, k2))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulBiasInto dst shape %v, want (%d,%d)", dst.shape, m, n))
	}
	if len(bias) != m {
		panic(fmt.Sprintf("tensor: MatMulBiasInto bias length %d, want %d", len(bias), m))
	}
	// Seed the bias, accumulate like MatMulAddInto, then apply the fused
	// activation in place.
	for i := 0; i < m; i++ {
		orow := dst.data[i*n : (i+1)*n]
		bv := bias[i]
		for j := range orow {
			orow[j] = bv
		}
	}
	MatMulAddInto(dst, a, b)
	if relu {
		od := dst.data[:m*n]
		for j, v := range od {
			od[j] = reluBits(v)
		}
	}
	return dst
}

// Argmax returns the flat index of the maximum element.
func (t *Tensor) Argmax() int {
	best, bestIdx := math.Inf(-1), 0
	for i, v := range t.data {
		if v > best {
			best, bestIdx = v, i
		}
	}
	return bestIdx
}

// Max returns the maximum element.
func (t *Tensor) Max() float64 { return t.data[t.Argmax()] }

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(t.Size()) }

// Dot returns the inner product of two tensors of identical shape.
func Dot(a, b *Tensor) float64 {
	a.mustSameShape(b)
	s := 0.0
	for i := range a.data {
		s += a.data[i] * b.data[i]
	}
	return s
}

// L2 returns the Euclidean norm of all elements.
func (t *Tensor) L2() float64 { return math.Sqrt(Dot(t, t)) }

// Equal reports whether two tensors have the same shape and all elements
// within tol of each other.
func Equal(a, b *Tensor, tol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a compact description, truncating large tensors.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	limit := t.Size()
	if limit > 8 {
		limit = 8
	}
	for i := 0; i < limit; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if t.Size() > limit {
		b.WriteString(" …")
	}
	b.WriteString("]")
	return b.String()
}
