// Package core implements the paper's primary contribution: decay spaces
// (Bodlaender & Halldórsson, PODC 2014). A decay space replaces the
// geometric path-loss assumption of the SINR model with an arbitrary
// pairwise decay matrix f : V×V → R≥0, measured or simulated from a real
// environment. The package provides
//
//   - the Space abstraction and its dense Matrix implementation (Def 2.1),
//   - the metricity parameter ζ (Def 2.2) and the variant ϕ / φ (Sec 4.2),
//   - the induced quasi-metric d = f^(1/ζ),
//   - balls, packings and packing numbers (Sec 3.1),
//   - Assouad-dimension and doubling estimation (Def 3.2),
//   - the fading value γ_z(r) and fading parameter γ (Def 3.1), together
//     with the Theorem 2 upper bound C·2^(A+1)·(ζ̂(2−A)−1).
package core

import (
	"errors"
	"fmt"
	"math"

	"decaynet/internal/par"
)

// Space is a decay space D = (V, f): a finite set of nodes 0..N()-1 and a
// decay function f on ordered node pairs (Def 2.1). Implementations must
// satisfy non-negativity and the identity of indiscernibles: F(i, j) == 0
// iff i == j. Decay spaces need not be symmetric nor obey any triangle
// inequality (they are pre-metrics).
type Space interface {
	// N returns the number of nodes.
	N() int
	// F returns the decay f(i, j) of a signal sent from node i to node j.
	F(i, j int) float64
}

// Symmetric is the optional marker contract on decay spaces that can
// certify f(i,j) == f(j,i) exactly. The triplet kernels (ZetaTol, Varphi)
// use it to halve the scanned triplet set: each unordered endpoint pair is
// visited once instead of twice. Implementations must only return true for
// bitwise-exact symmetry — the halved kernels rely on equality, not
// closeness. Geometric spaces are symmetric by construction; dense matrices
// check their storage.
type Symmetric interface {
	Space
	// Symmetric reports whether f(i,j) == f(j,i) for all pairs, exactly.
	Symmetric() bool
}

// KnownSymmetric reports whether d certifies exact symmetry through the
// Symmetric marker. Spaces without the marker report false (the kernels
// then run the full ordered-triplet scan, which is always correct).
func KnownSymmetric(d Space) bool {
	s, ok := d.(Symmetric)
	return ok && s.Symmetric()
}

// DecayBounded is the optional contract on geometry-backed decay spaces
// certifying a monotone distance→decay trend: DecayLowerBound(d) returns a
// lower bound on f(i, j) valid for EVERY ordered pair whose endpoints sit
// at Euclidean distance ≥ d, and the bound is nondecreasing in d.
// Implementations must be conservative — shadowing, penalty terms and
// floating-point rounding all have to be absorbed into the bound — because
// consumers (the tiered spatial-index build) prune exact searches on it:
// an optimistic bound silently corrupts results rather than slowing them.
// A bound of 0 is always valid and disables pruning.
type DecayBounded interface {
	Space
	// DecayLowerBound returns a nondecreasing lower bound on the decay of
	// any pair at Euclidean distance ≥ d.
	DecayLowerBound(d float64) float64
}

// RowSpace is the optional batch contract on decay spaces: Row fills dst
// (length ≥ N()) with the decays f(i, 0..N-1) in one call. Batch consumers
// (ζ/ϕ scans, dense affectance, quasi-metric materialization) use it to
// avoid a virtual F call per matrix element. Use Rows to obtain a RowSpace
// view of any Space: dense spaces expose their storage directly and every
// other space is materialized once.
type RowSpace interface {
	Space
	// Row copies row i of the decay matrix into dst[:N()].
	Row(i int, dst []float64)
}

// Rows returns a RowSpace view of d: d itself when it already implements
// the batch contract, else a dense Matrix materialized from it (the
// Materialize-backed adapter giving every space a dense fast path).
func Rows(d Space) RowSpace {
	if rs, ok := d.(RowSpace); ok {
		return rs
	}
	return Materialize(d)
}

// Dense returns a dense Matrix view of d, reusing d's storage when it is
// already a Matrix.
func Dense(d Space) *Matrix {
	if m, ok := d.(*Matrix); ok {
		return m
	}
	return Materialize(d)
}

// Matrix is a dense decay space backed by an n×n matrix.
type Matrix struct {
	n int
	f []float64
}

var (
	_ Space     = (*Matrix)(nil)
	_ RowSpace  = (*Matrix)(nil)
	_ Symmetric = (*Matrix)(nil)
)

// Validation errors returned by NewMatrix and Validate.
var (
	ErrNegativeDecay = errors.New("core: negative decay")
	ErrZeroOffDiag   = errors.New("core: zero decay between distinct nodes")
	ErrNotFinite     = errors.New("core: non-finite decay")
	ErrShape         = errors.New("core: rows must form a square matrix")
)

// NewMatrix builds a decay space from row-major rows. Diagonal entries are
// forced to zero (the paper: "what happens at a given point is immaterial").
// It validates Def 2.1: decays are finite, non-negative, and positive off
// the diagonal.
func NewMatrix(rows [][]float64) (*Matrix, error) {
	n := len(rows)
	m := &Matrix{n: n, f: make([]float64, n*n)}
	for i, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrShape, i, len(row), n)
		}
		for j, v := range row {
			if i == j {
				continue
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: f(%d,%d) = %v", ErrNotFinite, i, j, v)
			}
			if v < 0 {
				return nil, fmt.Errorf("%w: f(%d,%d) = %v", ErrNegativeDecay, i, j, v)
			}
			if v == 0 {
				return nil, fmt.Errorf("%w: f(%d,%d)", ErrZeroOffDiag, i, j)
			}
			m.f[i*n+j] = v
		}
	}
	return m, nil
}

// maxFlatSide is the largest n whose n² fits an int: past it n*n wraps,
// and a short buffer could pass the length check.
var maxFlatSide = int(math.Sqrt(math.MaxInt))

// NewMatrixFlat builds a decay space adopting the row-major flat buffer
// (length n²) without copying — the constructor for pipelines that already
// assembled a dense grid and cannot afford a second n² allocation (sharded
// trace cleaning). Validation matches NewMatrix; diagonal entries are
// forced to zero. The caller must not retain flat.
func NewMatrixFlat(n int, flat []float64) (*Matrix, error) {
	if n < 0 || n > maxFlatSide || len(flat) != n*n {
		return nil, fmt.Errorf("%w: %d entries for %d nodes", ErrShape, len(flat), n)
	}
	m := &Matrix{n: n, f: flat}
	for i := 0; i < n; i++ {
		row := flat[i*n : (i+1)*n]
		for j, v := range row {
			if i == j {
				row[j] = 0
				continue
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: f(%d,%d) = %v", ErrNotFinite, i, j, v)
			}
			if v < 0 {
				return nil, fmt.Errorf("%w: f(%d,%d) = %v", ErrNegativeDecay, i, j, v)
			}
			if v == 0 {
				return nil, fmt.Errorf("%w: f(%d,%d)", ErrZeroOffDiag, i, j)
			}
		}
	}
	return m, nil
}

// FromFunc materializes a dense decay space by evaluating f on every
// ordered pair of n nodes. The same validation as NewMatrix applies.
func FromFunc(n int, f func(i, j int) float64) (*Matrix, error) {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
		for j := range rows[i] {
			if i != j {
				rows[i][j] = f(i, j)
			}
		}
	}
	return NewMatrix(rows)
}

// N returns the number of nodes.
func (m *Matrix) N() int {
	return m.n
}

// F returns the decay from node i to node j.
func (m *Matrix) F(i, j int) float64 {
	return m.f[i*m.n+j]
}

// Row copies row i into dst[:N()].
func (m *Matrix) Row(i int, dst []float64) {
	copy(dst[:m.n], m.f[i*m.n:(i+1)*m.n])
}

// row returns row i without copying — the in-package fast path.
func (m *Matrix) row(i int) []float64 {
	return m.f[i*m.n : (i+1)*m.n]
}

// Symmetric reports exact (bitwise) symmetry of the stored matrix — the
// core.Symmetric marker. The O(n²) check is free next to the O(n³) triplet
// scans it unlocks, and rechecking on each call keeps Set safe. It compares
// the matrix to its transpose in square blocks, so the column side of a
// block stays in cache instead of striding through n rows per entry.
func (m *Matrix) Symmetric() bool {
	const block = 32
	n := m.n
	for i0 := 0; i0 < n; i0 += block {
		for j0 := i0; j0 < n; j0 += block {
			for i := i0; i < min(i0+block, n); i++ {
				for j := max(j0, i+1); j < min(j0+block, n); j++ {
					if m.f[i*n+j] != m.f[j*n+i] {
						return false
					}
				}
			}
		}
	}
	return true
}

// Set overwrites the decay from i to j. Diagonal writes are ignored.
// Invalid values are rejected.
func (m *Matrix) Set(i, j int, v float64) error {
	if i == j {
		return nil
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: f(%d,%d) = %v", ErrNotFinite, i, j, v)
	}
	if v < 0 {
		return fmt.Errorf("%w: f(%d,%d) = %v", ErrNegativeDecay, i, j, v)
	}
	if v == 0 {
		return fmt.Errorf("%w: f(%d,%d)", ErrZeroOffDiag, i, j)
	}
	m.f[i*m.n+j] = v
	return nil
}

// SetRow overwrites the decays out of node i, f(i, ·), with row (length
// N()). The whole row is validated before any entry is written, so a
// rejected row leaves the matrix untouched; the diagonal entry is forced to
// zero regardless of row[i].
func (m *Matrix) SetRow(i int, row []float64) error {
	if len(row) != m.n {
		return fmt.Errorf("%w: row %d has %d entries, want %d", ErrShape, i, len(row), m.n)
	}
	for j, v := range row {
		if j == i {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: f(%d,%d) = %v", ErrNotFinite, i, j, v)
		}
		if v < 0 {
			return fmt.Errorf("%w: f(%d,%d) = %v", ErrNegativeDecay, i, j, v)
		}
		if v == 0 {
			return fmt.Errorf("%w: f(%d,%d)", ErrZeroOffDiag, i, j)
		}
	}
	copy(m.f[i*m.n:(i+1)*m.n], row)
	m.f[i*m.n+i] = 0
	return nil
}

// Clone returns an independent copy of the matrix space.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{n: m.n, f: make([]float64, len(m.f))}
	copy(out.f, m.f)
	return out
}

// Materialize copies an arbitrary Space into a dense Matrix, evaluating
// rows in parallel on the shared worker pool. Spaces implementing RowSpace
// fill whole rows at a time.
func Materialize(d Space) *Matrix {
	n := d.N()
	m := &Matrix{n: n, f: make([]float64, n*n)}
	if rs, ok := d.(RowSpace); ok {
		par.For(n, func(i int) {
			rs.Row(i, m.f[i*n:(i+1)*n])
			m.f[i*n+i] = 0
		})
		return m
	}
	par.For(n, func(i int) {
		row := m.f[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			if i != j {
				row[j] = d.F(i, j)
			}
		}
	})
	return m
}

// Validate checks Def 2.1 on an arbitrary Space: finite, non-negative
// decays, positive off the diagonal.
func Validate(d Space) error {
	n := d.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := d.F(i, j)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: f(%d,%d) = %v", ErrNotFinite, i, j, v)
			}
			if v < 0 {
				return fmt.Errorf("%w: f(%d,%d) = %v", ErrNegativeDecay, i, j, v)
			}
			if v == 0 {
				return fmt.Errorf("%w: f(%d,%d)", ErrZeroOffDiag, i, j)
			}
		}
	}
	return nil
}

// IsSymmetric reports whether f(i,j) == f(j,i) for all pairs, within
// relative tolerance tol.
func IsSymmetric(d Space, tol float64) bool {
	n := d.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := d.F(i, j), d.F(j, i)
			if math.Abs(a-b) > tol*(1+math.Abs(a)+math.Abs(b)) {
				return false
			}
		}
	}
	return true
}

// Symmetrized returns a symmetric space with f'(i,j) = f'(j,i) =
// sqrt(f(i,j)·f(j,i)) (geometric mean, the standard reciprocal-channel
// estimate from two-way measurements).
func Symmetrized(d Space) *Matrix {
	n := d.N()
	m := &Matrix{n: n, f: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := math.Sqrt(d.F(i, j) * d.F(j, i))
			m.f[i*n+j] = v
			m.f[j*n+i] = v
		}
	}
	return m
}

// DecayRange returns the smallest and largest off-diagonal decays.
// For an empty or single-node space it returns (0, 0).
func DecayRange(d Space) (lo, hi float64) {
	n := d.N()
	first := true
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := d.F(i, j)
			if first {
				lo, hi = v, v
				first = false
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}

// Subspace returns the decay space induced on the given nodes
// (in the given order).
func Subspace(d Space, nodes []int) *Matrix {
	n := len(nodes)
	m := &Matrix{n: n, f: make([]float64, n*n)}
	for i, u := range nodes {
		for j, v := range nodes {
			if i != j {
				m.f[i*n+j] = d.F(u, v)
			}
		}
	}
	return m
}
