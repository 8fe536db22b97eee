// Package csi implements the IEEE 802.11ac explicit-feedback channel state
// information pipeline of ref. [8] (§IV.B): a complex Hermitian
// eigensolver recovers the beamforming matrix V from a simulated multipath
// channel, V is compressed into Givens-rotation angles (φ, ψ) exactly as a
// VHT compressed beamforming report does, and the angles across subcarriers
// form the feature vector the learning system consumes — 624 features for
// the paper's 4×3 feedback over 52 subcarriers.
package csi

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix is a dense complex matrix, row major.
type Matrix [][]complex128

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) Matrix {
	m := make(Matrix, rows)
	for i := range m {
		m[i] = make([]complex128, cols)
	}
	return m
}

// Rows returns the row count.
func (m Matrix) Rows() int { return len(m) }

// Cols returns the column count (0 for an empty matrix).
func (m Matrix) Cols() int {
	if len(m) == 0 {
		return 0
	}
	return len(m[0])
}

// Clone returns a deep copy.
func (m Matrix) Clone() Matrix {
	c := NewMatrix(m.Rows(), m.Cols())
	for i := range m {
		copy(c[i], m[i])
	}
	return c
}

// ConjTranspose returns mᴴ.
func (m Matrix) ConjTranspose() Matrix {
	t := NewMatrix(m.Cols(), m.Rows())
	for i := range m {
		for j := range m[i] {
			t[j][i] = cmplx.Conj(m[i][j])
		}
	}
	return t
}

// Mul returns m×b.
func (m Matrix) Mul(b Matrix) Matrix {
	if m.Cols() != b.Rows() {
		panic(fmt.Sprintf("csi: mul dims %dx%d × %dx%d", m.Rows(), m.Cols(), b.Rows(), b.Cols()))
	}
	out := NewMatrix(m.Rows(), b.Cols())
	for i := range m {
		for k := 0; k < m.Cols(); k++ {
			v := m[i][k]
			if v == 0 {
				continue
			}
			for j := 0; j < b.Cols(); j++ {
				out[i][j] += v * b[k][j]
			}
		}
	}
	return out
}

// HermitianEig diagonalizes a Hermitian matrix with cyclic complex Jacobi
// rotations, returning eigenvalues (descending) and the matching
// orthonormal eigenvectors as matrix columns.
func HermitianEig(a Matrix) (vals []float64, vecs Matrix) {
	n := a.Rows()
	if n == 0 || a.Cols() != n {
		panic("csi: HermitianEig needs a square matrix")
	}
	work := a.Clone()
	v := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v[i][i] = 1
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				off += cmplx.Abs(work[p][q])
			}
		}
		if off < 1e-13 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				x := work[p][q]
				r := cmplx.Abs(x)
				if r < 1e-15 {
					continue
				}
				theta := cmplx.Phase(x)
				app := real(work[p][p])
				aqq := real(work[q][q])
				phi := 0.5 * math.Atan2(2*r, app-aqq)
				c := math.Cos(phi)
				s := math.Sin(phi)
				eit := cmplx.Exp(complex(0, theta))
				// Right-multiply by J: columns p, q.
				for k := 0; k < n; k++ {
					kp, kq := work[k][p], work[k][q]
					work[k][p] = complex(c, 0)*kp + complex(s, 0)*cmplx.Conj(eit)*kq
					work[k][q] = -complex(s, 0)*eit*kp + complex(c, 0)*kq
					vp, vq := v[k][p], v[k][q]
					v[k][p] = complex(c, 0)*vp + complex(s, 0)*cmplx.Conj(eit)*vq
					v[k][q] = -complex(s, 0)*eit*vp + complex(c, 0)*vq
				}
				// Left-multiply by Jᴴ: rows p, q.
				for k := 0; k < n; k++ {
					pk, qk := work[p][k], work[q][k]
					work[p][k] = complex(c, 0)*pk + complex(s, 0)*eit*qk
					work[q][k] = -complex(s, 0)*cmplx.Conj(eit)*pk + complex(c, 0)*qk
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = real(work[i][i])
	}
	// Sort descending, permuting eigenvector columns alongside.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if vals[order[j]] > vals[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	sortedVals := make([]float64, n)
	sortedVecs := NewMatrix(n, n)
	for newCol, oldCol := range order {
		sortedVals[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs[r][newCol] = v[r][oldCol]
		}
	}
	return sortedVals, sortedVecs
}

// BeamformingV returns the Nt×nc beamforming matrix for a channel H
// (rows = receive antennas, cols = transmit antennas): the top-nc
// eigenvectors of HᴴH, the matrix a VHT beamformee feeds back.
func BeamformingV(h Matrix, nc int) Matrix {
	gram := h.ConjTranspose().Mul(h)
	_, vecs := HermitianEig(gram)
	nt := gram.Rows()
	if nc > nt {
		panic(fmt.Sprintf("csi: nc %d > nt %d", nc, nt))
	}
	v := NewMatrix(nt, nc)
	for r := 0; r < nt; r++ {
		for c := 0; c < nc; c++ {
			v[r][c] = vecs[r][c]
		}
	}
	return v
}

// Angles is one subcarrier's compressed beamforming report.
type Angles struct {
	M, N int
	// Phi are the φ angles in feedback order, in [0, 2π).
	Phi []float64
	// Psi are the ψ angles in feedback order, in [0, π/2].
	Psi []float64
}

// NumAngles returns the angle count for an M×N compressed report:
// 2·Σ_{i=1}^{min(N,M-1)} (M−i).
func NumAngles(m, n int) (phi, psi int) {
	k := n
	if m-1 < k {
		k = m - 1
	}
	for i := 1; i <= k; i++ {
		phi += m - i
		psi += m - i
	}
	return phi, psi
}

// Compress performs the 802.11ac Givens decomposition of a beamforming
// matrix with orthonormal columns, returning the φ/ψ angle sets.
func Compress(v Matrix) Angles {
	m, n := v.Rows(), v.Cols()
	w := v.Clone()
	// Step 0: rotate each column so the last row is real non-negative
	// (these common phases are not fed back).
	for j := 0; j < n; j++ {
		ph := cmplx.Phase(w[m-1][j])
		rot := cmplx.Exp(complex(0, -ph))
		for i := 0; i < m; i++ {
			w[i][j] *= rot
		}
	}
	k := n
	if m-1 < k {
		k = m - 1
	}
	a := Angles{M: m, N: n}
	for i := 0; i < k; i++ {
		// φ angles make column i real (rows i..m-2; the last row is
		// already real).
		for l := i; l < m-1; l++ {
			phi := cmplx.Phase(w[l][i])
			if phi < 0 {
				phi += 2 * math.Pi
			}
			a.Phi = append(a.Phi, phi)
			rot := cmplx.Exp(complex(0, -phi))
			for j := i; j < n; j++ {
				w[l][j] *= rot
			}
		}
		// ψ Givens rotations zero column i below the diagonal.
		for l := i + 1; l < m; l++ {
			psi := math.Atan2(real(w[l][i]), real(w[i][i]))
			a.Psi = append(a.Psi, psi)
			c, s := complex(math.Cos(psi), 0), complex(math.Sin(psi), 0)
			for j := i; j < n; j++ {
				wi, wl := w[i][j], w[l][j]
				w[i][j] = c*wi + s*wl
				w[l][j] = -s*wi + c*wl
			}
		}
	}
	return a
}
