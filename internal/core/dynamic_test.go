package core

import (
	"context"
	"math"
	"testing"

	"decaynet/internal/rng"
)

// randomMatrix builds an n-node random decay matrix (asymmetric).
func randomMatrix(t testing.TB, n int, seed uint64) *Matrix {
	t.Helper()
	src := rng.New(seed)
	m, err := FromFunc(n, func(i, j int) float64 { return src.Range(0.5, 50) })
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mutateRows overwrites k random rows with fresh random decays and returns
// the dirty node list.
func mutateRows(t testing.TB, m *Matrix, k int, src *rng.Source) []int {
	t.Helper()
	n := m.N()
	dirty := make([]int, 0, k)
	seen := make(map[int]bool)
	for len(dirty) < k {
		r := src.Intn(n)
		if seen[r] {
			continue
		}
		seen[r] = true
		dirty = append(dirty, r)
		row := make([]float64, n)
		for j := range row {
			if j != r {
				row[j] = src.Range(0.5, 50)
			}
		}
		if err := m.SetRow(r, row); err != nil {
			t.Fatal(err)
		}
	}
	return dirty
}

// mutateRowsCols rewrites both the row and the column of k random nodes —
// the shape of a node move — and returns the dirty node list. The column
// entries are drawn from a ten times wider range than the rest, so the new
// maxima tend to lie in the slices only a column repair rescans: ζ's
// (x, y ∈ M, z ∉ M) and ϕ's (x, y ∉ M, z ∈ M) for clean x.
func mutateRowsCols(t *testing.T, m *Matrix, k int, src *rng.Source) []int {
	t.Helper()
	dirty := mutateRows(t, m, k, src)
	for _, r := range dirty {
		for i := 0; i < m.N(); i++ {
			if err := m.Set(i, r, src.Range(0.5, 500)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dirty
}

func TestZetaTrackerMatchesFullScan(t *testing.T) {
	for _, n := range []int{3, 8, 24, 64} {
		m := randomMatrix(t, n, uint64(n)*13+1)
		zt, err := NewZetaTracker(context.Background(), m, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		want := ZetaTol(m, 1e-12)
		if got := zt.Zeta(); got != want {
			t.Errorf("n=%d: tracker build zeta %v, full scan %v", n, got, want)
		}
		src := rng.New(uint64(n) * 7)
		// Steps 0–3 rewrite rows only; steps 4–7 rewrite rows and columns,
		// which keeps the slices a row-only repair skips.
		for step := 0; step < 8; step++ {
			k := 1 + step%3
			if k >= n {
				k = 1
			}
			rowsOnly := step < 4
			var dirty []int
			if rowsOnly {
				dirty = mutateRows(t, m, k, src)
			} else {
				dirty = mutateRowsCols(t, m, k, src)
			}
			got := zt.Repair(dirty, rowsOnly)
			want := ZetaTol(m, 1e-12)
			if got != want {
				t.Fatalf("n=%d step=%d rowsOnly=%v: repaired zeta %v, full scan %v", n, step, rowsOnly, got, want)
			}
		}
	}
}

func TestVarphiTrackerMatchesFullScan(t *testing.T) {
	for _, n := range []int{3, 8, 24, 64} {
		m := randomMatrix(t, n, uint64(n)*31+5)
		vt, err := NewVarphiTracker(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := vt.Varphi(), Varphi(m); got != want {
			t.Errorf("n=%d: tracker build varphi %v, full scan %v", n, got, want)
		}
		src := rng.New(uint64(n) * 3)
		for step := 0; step < 8; step++ {
			k := 1 + step%3
			if k >= n {
				k = 1
			}
			rowsOnly := step < 4
			var dirty []int
			if rowsOnly {
				dirty = mutateRows(t, m, k, src)
			} else {
				dirty = mutateRowsCols(t, m, k, src)
			}
			got := vt.Repair(dirty, rowsOnly)
			want := Varphi(m)
			if got != want {
				t.Fatalf("n=%d step=%d rowsOnly=%v: repaired varphi %v, full scan %v", n, step, rowsOnly, got, want)
			}
		}
	}
}

// The decrease case: shrinking the decays that attained the maximum must
// lower the tracked value to the fresh-scan answer, not keep the stale one.
func TestTrackerHandlesDecrease(t *testing.T) {
	n := 16
	m := randomMatrix(t, n, 99)
	zt, err := NewZetaTracker(context.Background(), m, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	vt, err := NewVarphiTracker(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	// Flatten every row towards the uniform space a few rows at a time: ζ
	// and ϕ both fall towards their floors.
	for r := 0; r < n; r++ {
		row := make([]float64, n)
		for j := range row {
			if j != r {
				row[j] = 1
			}
		}
		if err := m.SetRow(r, row); err != nil {
			t.Fatal(err)
		}
		dirty := []int{r}
		if got, want := zt.Repair(dirty, true), ZetaTol(m, 1e-12); got != want {
			t.Fatalf("row %d: zeta %v, want %v", r, got, want)
		}
		if got, want := vt.Repair(dirty, true), Varphi(m); got != want {
			t.Fatalf("row %d: varphi %v, want %v", r, got, want)
		}
	}
	if z := zt.Zeta(); z != DefaultZetaFloor {
		t.Errorf("uniform space zeta %v, want floor", z)
	}
	if v := vt.Varphi(); v != 0.5 {
		t.Errorf("uniform space varphi %v, want 0.5", v)
	}
}

// BenchmarkTrackerRepairRowsOnly times the tracker-repair layer alone: a
// row-only repair of 4 freshly rewritten rows at n=768 (the rewrite itself
// is untimed). The trackers are built once, outside the timed runs.
func BenchmarkTrackerRepairRowsOnly(b *testing.B) {
	const n, k = 768, 4
	ctx := context.Background()
	mz, mv := randomMatrix(b, n, 1), randomMatrix(b, n, 2)
	zt, err := NewZetaTracker(ctx, mz, 1e-12)
	if err != nil {
		b.Fatal(err)
	}
	vt, err := NewVarphiTracker(ctx, mv)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name   string
		m      *Matrix
		repair func(dirty []int)
	}{
		{"zeta", mz, func(dirty []int) { zt.Repair(dirty, true) }},
		{"phi", mv, func(dirty []int) { vt.Repair(dirty, true) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			src := rng.New(3)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dirty := mutateRows(b, c.m, k, src)
				b.StartTimer()
				c.repair(dirty)
			}
		})
	}
}

func TestTrackerCancelledBuild(t *testing.T) {
	m := randomMatrix(t, 64, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewZetaTracker(ctx, m, 1e-12); err != context.Canceled {
		t.Errorf("zeta tracker build err = %v, want context.Canceled", err)
	}
	if _, err := NewVarphiTracker(ctx, m); err != context.Canceled {
		t.Errorf("varphi tracker build err = %v, want context.Canceled", err)
	}
}

func TestZetaCtxCancelled(t *testing.T) {
	m := randomMatrix(t, 48, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ZetaTolCtx(ctx, m, 1e-12); err != context.Canceled {
		t.Errorf("ZetaTolCtx err = %v, want context.Canceled", err)
	}
	if _, err := VarphiCtx(ctx, m); err != context.Canceled {
		t.Errorf("VarphiCtx err = %v, want context.Canceled", err)
	}
	if _, err := ZetaSampledEstimateCtx(ctx, m, 1000, rng.New(1)); err != context.Canceled {
		t.Errorf("ZetaSampledEstimateCtx err = %v, want context.Canceled", err)
	}
}

func TestSampledTargetReachesPrecision(t *testing.T) {
	m := randomMatrix(t, 64, 17)
	eps := 0.05
	est, err := ZetaSampledTarget(context.Background(), m, 512, eps, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if est.Strata == 0 || est.HalfWidth95 > eps {
		t.Errorf("target estimate half-width %v (strata %d), want <= %v", est.HalfWidth95, est.Strata, eps)
	}
	if est.Value < DefaultZetaFloor || est.Value > ZetaTol(m, 1e-12)+1e-9 {
		t.Errorf("target estimate %v outside [floor, exact]", est.Value)
	}
	// ϕ stratum maxima span the full decay ratio range on this instance, so
	// the achievable half-width is coarser than ζ's; the loop must still
	// drive it under a realistic target.
	vepds := 1.0
	vest, err := VarphiSampledTarget(context.Background(), m, 512, vepds, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if vest.HalfWidth95 > vepds {
		t.Errorf("varphi target half-width %v, want <= %v", vest.HalfWidth95, vepds)
	}
}

func TestMatrixSetRowValidates(t *testing.T) {
	m := randomMatrix(t, 4, 1)
	before := m.F(1, 2)
	if err := m.SetRow(1, []float64{1, 5, 0, 1}); err == nil {
		t.Fatal("SetRow accepted a zero off-diagonal decay")
	}
	if m.F(1, 2) != before {
		t.Error("rejected SetRow partially applied")
	}
	if err := m.SetRow(1, []float64{1, math.NaN(), 2, 3}); err != nil {
		t.Error("diagonal entry should be ignored:", err)
	}
	if m.F(1, 1) != 0 {
		t.Error("diagonal not forced to zero")
	}
}

func TestQuasiMetricPatchedCopy(t *testing.T) {
	m := randomMatrix(t, 12, 6)
	q := NewQuasiMetric(m, 2.5)
	q.Dense() // materialize
	src := rng.New(11)
	dirty := mutateRows(t, m, 3, src)
	patched := q.PatchedCopy(dirty, true)
	fresh := NewQuasiMetric(m, 2.5)
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if got, want := patched.D(i, j), fresh.D(i, j); got != want {
				t.Fatalf("patched D(%d,%d) = %v, fresh %v", i, j, got, want)
			}
		}
	}
}

// TestTrackersOnTinySpaces: spaces with fewer than three nodes have no
// triplets; the trackers report the parameters' floors and repairs are
// no-ops.
func TestTrackersOnTinySpaces(t *testing.T) {
	ctx := context.Background()
	for n := 1; n <= 2; n++ {
		m, err := UniformSpace(n, 3)
		if err != nil {
			t.Fatal(err)
		}
		zt, err := NewZetaTracker(ctx, m, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		vt, err := NewVarphiTracker(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		if z, v := zt.Repair([]int{0}, true), vt.Repair([]int{0}, false); z != DefaultZetaFloor || v != VarphiFloor {
			t.Fatalf("n=%d: ζ %v, ϕ %v", n, z, v)
		}
	}
}
