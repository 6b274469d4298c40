package core

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"testing"

	"decaynet/internal/geom"
	"decaynet/internal/rng"
)

// randomSpace builds a valid random decay space with decays in [lo, hi).
func randomSpace(t *testing.T, seed uint64, n int, lo, hi float64) *Matrix {
	t.Helper()
	src := rng.New(seed)
	m, err := FromFunc(n, func(i, j int) float64 { return src.Range(lo, hi) })
	if err != nil {
		t.Fatalf("randomSpace: %v", err)
	}
	return m
}

func TestNewMatrixValidation(t *testing.T) {
	tests := []struct {
		name    string
		rows    [][]float64
		wantErr error
	}{
		{"valid", [][]float64{{0, 1}, {2, 0}}, nil},
		{"negative", [][]float64{{0, -1}, {2, 0}}, ErrNegativeDecay},
		{"zero off-diagonal", [][]float64{{0, 0}, {2, 0}}, ErrZeroOffDiag},
		{"NaN", [][]float64{{0, math.NaN()}, {2, 0}}, ErrNotFinite},
		{"Inf", [][]float64{{0, math.Inf(1)}, {2, 0}}, ErrNotFinite},
		{"ragged", [][]float64{{0, 1}, {2}}, ErrShape},
		{"empty", nil, nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewMatrix(tc.rows)
			if tc.wantErr == nil && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("error = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestNewMatrixFlatRejectsOverflowingSide: a side whose square wraps an
// int — 2^(IntSize/2) wraps to exactly zero — must fail the shape check,
// not pass it with an empty buffer and slice out of range.
func TestNewMatrixFlatRejectsOverflowingSide(t *testing.T) {
	for _, n := range []int{-1, maxFlatSide + 1, 1 << (strconv.IntSize / 2)} {
		if _, err := NewMatrixFlat(n, nil); !errors.Is(err, ErrShape) {
			t.Fatalf("NewMatrixFlat(%d, nil) error = %v, want ErrShape", n, err)
		}
	}
}

func TestMatrixDiagonalForcedZero(t *testing.T) {
	m, err := NewMatrix([][]float64{{99, 1}, {2, 99}})
	if err != nil {
		t.Fatal(err)
	}
	if m.F(0, 0) != 0 || m.F(1, 1) != 0 {
		t.Error("diagonal not forced to zero")
	}
	if m.F(0, 1) != 1 || m.F(1, 0) != 2 {
		t.Error("off-diagonal mangled")
	}
}

func TestMatrixSet(t *testing.T) {
	m, _ := NewMatrix([][]float64{{0, 1}, {2, 0}})
	if err := m.Set(0, 1, 5); err != nil || m.F(0, 1) != 5 {
		t.Error("Set failed")
	}
	if err := m.Set(0, 0, 7); err != nil || m.F(0, 0) != 0 {
		t.Error("diagonal Set should be a no-op")
	}
	if err := m.Set(0, 1, -1); !errors.Is(err, ErrNegativeDecay) {
		t.Error("negative Set accepted")
	}
	if err := m.Set(0, 1, 0); !errors.Is(err, ErrZeroOffDiag) {
		t.Error("zero Set accepted")
	}
	if err := m.Set(0, 1, math.NaN()); !errors.Is(err, ErrNotFinite) {
		t.Error("NaN Set accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	m, _ := NewMatrix([][]float64{{0, 1}, {2, 0}})
	c := m.Clone()
	if err := c.Set(0, 1, 9); err != nil {
		t.Fatal(err)
	}
	if m.F(0, 1) != 1 {
		t.Error("Clone aliases original")
	}
}

func TestMaterializeAndValidate(t *testing.T) {
	g, err := NewGeometricSpace([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := Materialize(g)
	if m.N() != 3 {
		t.Fatalf("N = %d", m.N())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m.F(i, j) != g.F(i, j) {
				t.Fatalf("Materialize mismatch at (%d,%d)", i, j)
			}
		}
	}
	if err := Validate(m); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestIsSymmetric(t *testing.T) {
	sym, _ := NewMatrix([][]float64{{0, 3}, {3, 0}})
	if !IsSymmetric(sym, 1e-12) {
		t.Error("symmetric space reported asymmetric")
	}
	asym, _ := NewMatrix([][]float64{{0, 3}, {4, 0}})
	if IsSymmetric(asym, 1e-12) {
		t.Error("asymmetric space reported symmetric")
	}
}

func TestSymmetrized(t *testing.T) {
	asym, _ := NewMatrix([][]float64{{0, 4}, {9, 0}})
	s := Symmetrized(asym)
	if !IsSymmetric(s, 1e-12) {
		t.Fatal("Symmetrized not symmetric")
	}
	if got := s.F(0, 1); math.Abs(got-6) > 1e-12 {
		t.Errorf("geometric mean = %v, want 6", got)
	}
}

func TestDecayRange(t *testing.T) {
	m, _ := NewMatrix([][]float64{{0, 1, 8}, {2, 0, 3}, {5, 4, 0}})
	lo, hi := DecayRange(m)
	if lo != 1 || hi != 8 {
		t.Errorf("DecayRange = (%v, %v)", lo, hi)
	}
	empty, _ := NewMatrix(nil)
	lo, hi = DecayRange(empty)
	if lo != 0 || hi != 0 {
		t.Errorf("empty DecayRange = (%v, %v)", lo, hi)
	}
}

func TestSubspace(t *testing.T) {
	m, _ := NewMatrix([][]float64{{0, 1, 2}, {3, 0, 4}, {5, 6, 0}})
	s := Subspace(m, []int{2, 0})
	if s.N() != 2 {
		t.Fatalf("N = %d", s.N())
	}
	if s.F(0, 1) != 5 || s.F(1, 0) != 2 {
		t.Errorf("Subspace decays = %v, %v", s.F(0, 1), s.F(1, 0))
	}
}

func TestGeometricSpaceBasics(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 4)}
	g, err := NewGeometricSpace(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.F(0, 1); math.Abs(got-25) > 1e-9 {
		t.Errorf("F = %v, want 25", got)
	}
	if g.F(0, 0) != 0 {
		t.Error("diagonal not zero")
	}
	if g.Alpha() != 2 || g.N() != 2 || g.Point(1) != geom.Pt(3, 4) {
		t.Error("accessors wrong")
	}
	if _, err := NewGeometricSpace(pts, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := NewGeometricSpace([]geom.Point{geom.Pt(1, 1), geom.Pt(1, 1)}, 2); err == nil {
		t.Error("duplicate points accepted")
	}
}

func TestUniformSpace(t *testing.T) {
	u, err := UniformSpace(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 7.0
			if i == j {
				want = 0
			}
			if u.F(i, j) != want {
				t.Fatalf("uniform F(%d,%d) = %v", i, j, u.F(i, j))
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := randomSpace(t, 5, 6, 0.5, 10)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != m.N() {
		t.Fatalf("N = %d, want %d", got.N(), m.N())
	}
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if got.F(i, j) != m.F(i, j) {
				t.Fatalf("round trip mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestReadJSONRejectsBadHeader(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString(`{"nodes":3,"decay":[[0,1],[1,0]]}`)); err == nil {
		t.Error("mismatched header accepted")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{garbage`)); err == nil {
		t.Error("garbage accepted")
	}
}
