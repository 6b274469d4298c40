package core

import (
	"context"
	"math"
	"testing"

	"decaynet/internal/rng"
)

// streamTestMatrix builds a random positive dense matrix, symmetric or not.
func streamTestMatrix(t *testing.T, n int, seed uint64, symmetric bool) *Matrix {
	t.Helper()
	src := rng.New(seed)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if symmetric && j < i {
				rows[i][j] = rows[j][i]
				continue
			}
			rows[i][j] = src.Range(0.5, 50)
		}
	}
	m, err := NewMatrix(rows)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if m.Symmetric() != symmetric {
		t.Fatalf("Symmetric() = %v, want %v", m.Symmetric(), symmetric)
	}
	return m
}

// TestRowPagerServesTransformedRows checks the pager returns the transformed
// row contents, bounds its residency, and counts tile faults.
func TestRowPagerServesTransformedRows(t *testing.T) {
	m := streamTestMatrix(t, 20, 1, false)
	n := m.N()
	scale := func(i int, row []float64) {
		for j := range row {
			row[j] *= float64(i + 1)
		}
	}
	p := NewRowPager(m, 4, 2, scale)
	want := make([]float64, n)
	for _, i := range []int{0, 3, 19, 7, 0, 12, 5, 19} {
		got := p.Row(i)
		m.Row(i, want)
		for j := range want {
			if w := float64(i+1) * want[j]; got[j] != w {
				t.Fatalf("Row(%d)[%d] = %v, want %v", i, j, got[j], w)
			}
		}
	}
	if hb := p.HeldBytes(); hb != int64(2*4*n*8) {
		t.Fatalf("HeldBytes = %d, want %d", hb, 2*4*n*8)
	}
	if p.Loads() < 2 || p.Loads() > 8 {
		t.Fatalf("Loads = %d, want a handful of tile faults", p.Loads())
	}
}

// TestRowPagerLRURevisit checks that revisiting a resident tile is free and
// that eviction picks the least-recently-used tile.
func TestRowPagerLRURevisit(t *testing.T) {
	m := streamTestMatrix(t, 12, 2, false)
	p := NewRowPager(m, 4, 2, nil)
	p.Row(0) // tile 0
	p.Row(4) // tile 1
	p.Row(1) // tile 0 again: no fault
	if p.Loads() != 2 {
		t.Fatalf("Loads after resident revisit = %d, want 2", p.Loads())
	}
	p.Row(8) // tile 2 evicts tile 1 (LRU)
	p.Row(2) // tile 0 still resident
	if p.Loads() != 3 {
		t.Fatalf("Loads after eviction = %d, want 3", p.Loads())
	}
	p.Row(5) // tile 1 was evicted: faults again
	if p.Loads() != 4 {
		t.Fatalf("Loads after re-fault = %d, want 4", p.Loads())
	}
}

// TestStreamScanMatchesDenseRanges is the bit-identity property the sharded
// out-of-core path rests on: for every range, the streamed and dense ϕ
// ranges return the per-pair maximum over the range's triplets exactly,
// and the ζ ranges the larger of that and their state's seed, a value the
// space attains, so the max-merge over a partition equals the full scans.
func TestStreamScanMatchesDenseRanges(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		n    int
		sym  bool
	}{
		{"sym-24", 24, true},
		{"asym-24", 24, false},
		{"sym-65", 65, true},
		{"asym-65", 65, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := streamTestMatrix(t, tc.n, uint64(tc.n)+7, tc.sym)
			// Tiny tiles force plenty of paging traffic across the scan.
			ss, err := NewStreamScan(ctx, m, 1e-12, 7, 2)
			if err != nil {
				t.Fatalf("NewStreamScan: %v", err)
			}
			zs, err := NewZetaScanState(ctx, m, 1e-12)
			if err != nil {
				t.Fatal(err)
			}
			vs := NewVarphiScanState(m)
			ranges := [][2]int{{0, tc.n}, {0, tc.n / 3}, {tc.n / 3, tc.n - 1}, {tc.n - 1, tc.n}}
			for _, r := range ranges {
				exactZ, exactV := rangePerPair(m, r[0], r[1], tc.sym)
				// Each range runs serially and on the pool.
				for _, pool := range []bool{false, true} {
					gotZ, err := ss.ZetaMaxRange(ctx, r[0], r[1], tc.sym, pool)
					if err != nil {
						t.Fatalf("streamed ZetaMaxRange: %v", err)
					}
					if want := max(exactZ, ss.seed); gotZ != want {
						t.Fatalf("ZetaMaxRange[%d,%d) pool=%v = %v, want %v", r[0], r[1], pool, gotZ, want)
					}
					denseZ, err := zs.MaxRange(ctx, r[0], r[1], tc.sym, pool)
					if err != nil {
						t.Fatalf("dense ZetaMaxRange: %v", err)
					}
					if want := max(exactZ, zs.seed); denseZ != want {
						t.Fatalf("dense ZetaMaxRange[%d,%d) pool=%v = %v, want %v", r[0], r[1], pool, denseZ, want)
					}
					for _, v := range []struct {
						route string
						f     func(context.Context, int, int, bool, bool) (float64, error)
					}{{"dense", vs.MaxRange}, {"streamed", ss.VarphiMaxRange}} {
						got, err := v.f(ctx, r[0], r[1], tc.sym, pool)
						if err != nil {
							t.Fatalf("%s VarphiMaxRange: %v", v.route, err)
						}
						if got != exactV {
							t.Fatalf("%s VarphiMaxRange[%d,%d) pool=%v = %v, per-pair %v", v.route, r[0], r[1], pool, got, exactV)
						}
					}
				}
			}
			// Max-merge over a 3-way partition reproduces the full scans.
			cuts := []int{0, tc.n / 3, 2 * tc.n / 3, tc.n}
			zMerged, vMerged := DefaultZetaFloor, VarphiFloor
			for i := 0; i+1 < len(cuts); i++ {
				z, err := ss.ZetaMaxRange(ctx, cuts[i], cuts[i+1], tc.sym, false)
				if err != nil {
					t.Fatalf("ZetaMaxRange: %v", err)
				}
				if z > zMerged {
					zMerged = z
				}
				v, err := ss.VarphiMaxRange(ctx, cuts[i], cuts[i+1], tc.sym, false)
				if err != nil {
					t.Fatalf("VarphiMaxRange: %v", err)
				}
				if v > vMerged {
					vMerged = v
				}
			}
			if want := ZetaTol(m, 1e-12); zMerged != want {
				t.Fatalf("merged streamed ζ = %v, full scan %v", zMerged, want)
			}
			if want := Varphi(m); vMerged != want {
				t.Fatalf("merged streamed ϕ = %v, full scan %v", vMerged, want)
			}
		})
	}
}

// rangePerPair returns the per-pair ζ (tol 1e-12) and ϕ maxima over the
// triplets of m whose first index lies in [lo, hi) — with sym, only those
// whose other endpoint (y for ζ, z for ϕ) lies above it.
func rangePerPair(m *Matrix, lo, hi int, sym bool) (zeta, varphi float64) {
	zeta, varphi = DefaultZetaFloor, VarphiFloor
	n := m.N()
	for x := lo; x < hi; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				if y == x || z == x || z == y {
					continue
				}
				if !sym || y > x {
					zeta = max(zeta, zetaTriplet(math.Log(m.F(x, y)), math.Log(m.F(x, z)), math.Log(m.F(z, y)), 1e-12))
				}
				if !sym || z > x {
					varphi = max(varphi, m.F(x, z)/(m.F(x, y)+m.F(y, z)))
				}
			}
		}
	}
	return zeta, varphi
}

// TestStreamScanDegenerate covers the n < 3 floor and empty ranges.
func TestStreamScanDegenerate(t *testing.T) {
	ctx := context.Background()
	two, _ := NewMatrix([][]float64{{0, 5}, {9, 0}})
	ss, err := NewStreamScan(ctx, two, 1e-12, 0, 0)
	if err != nil {
		t.Fatalf("NewStreamScan: %v", err)
	}
	if z, err := ss.ZetaMaxRange(ctx, 0, 2, false, false); err != nil || z != DefaultZetaFloor {
		t.Fatalf("ζ on n=2 = %v, %v; want floor", z, err)
	}
	if v, err := ss.VarphiMaxRange(ctx, 0, 2, false, false); err != nil || v != VarphiFloor {
		t.Fatalf("ϕ on n=2 = %v, %v; want floor", v, err)
	}
	m := streamTestMatrix(t, 8, 3, false)
	ss, err = NewStreamScan(ctx, m, 1e-12, 0, 0)
	if err != nil {
		t.Fatalf("NewStreamScan: %v", err)
	}
	if z, err := ss.ZetaMaxRange(ctx, 5, 5, false, true); err != nil || z != DefaultZetaFloor {
		t.Fatalf("ζ on empty range = %v, %v; want floor", z, err)
	}
}

// TestStreamScanCancellation checks cooperative cancellation of both the
// extrema pass and the range scans.
func TestStreamScanCancellation(t *testing.T) {
	m := streamTestMatrix(t, 32, 4, false)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewStreamScan(cancelled, m, 1e-12, 0, 0); err != context.Canceled {
		t.Fatalf("cancelled NewStreamScan err = %v", err)
	}
	ss, err := NewStreamScan(context.Background(), m, 1e-12, 0, 0)
	if err != nil {
		t.Fatalf("NewStreamScan: %v", err)
	}
	for _, pool := range []bool{false, true} {
		if _, err := ss.ZetaMaxRange(cancelled, 0, 32, false, pool); err != context.Canceled {
			t.Fatalf("cancelled ZetaMaxRange pool=%v err = %v", pool, err)
		}
		if _, err := ss.VarphiMaxRange(cancelled, 0, 32, false, pool); err != context.Canceled {
			t.Fatalf("cancelled VarphiMaxRange pool=%v err = %v", pool, err)
		}
	}
}
