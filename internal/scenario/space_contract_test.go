package scenario

import (
	"math"
	"testing"

	"decaynet/internal/core"
	"decaynet/internal/tier"
)

// TestRowMatchesF pins the core.Space contract the affectance builds rest
// on: they read single entries through F while the metricity scans read
// whole rows, so for every space family Row(i)[j] and F(i, j) must carry
// the same bits for every pair, and the diagonal must be exactly 0.
func TestRowMatchesF(t *testing.T) {
	urban, err := Build("urban", Config{
		Nodes: 96, Links: 24, Seed: 3, SigmaDB: 6,
		Params: map[string]float64{"corner": 9, "block": 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	us, ok := urban.Space.(*urbanSpace)
	if !ok || us.sigmaLn == 0 || us.nlosLn == 0 {
		t.Fatalf("urban space %T lacks shadowing or corners", urban.Space)
	}
	plane, err := Build("plane", Config{Links: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plane.Space.(*core.GeometricSpace); !ok {
		t.Fatalf("plane space is %T, want *core.GeometricSpace", plane.Space)
	}
	office, err := Build("office", Config{Links: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f32, err := tier.Build(urban.Space, tier.Options{Config: tier.Config{K: 4, Tail: tier.TailFloat32}})
	if err != nil {
		t.Fatal(err)
	}
	model, err := tier.Build(urban.Space, tier.Options{Config: tier.Config{K: 4, Tail: tier.TailModel}, Points: urban.Points})
	if err != nil {
		t.Fatal(err)
	}
	spaces := []struct {
		name string
		sp   core.RowSpace
	}{
		{"matrix", core.Dense(office.Space)},
		{"geometric", plane.Space.(*core.GeometricSpace)},
		{"urban", us},
		{"tier-float32", f32},
		{"tier-model", model},
	}
	for _, tc := range spaces {
		n := tc.sp.N()
		row := make([]float64, n)
		for i := 0; i < n; i++ {
			tc.sp.Row(i, row)
			if row[i] != 0 || tc.sp.F(i, i) != 0 {
				t.Fatalf("%s: diagonal %d: Row %v, F %v", tc.name, i, row[i], tc.sp.F(i, i))
			}
			for j, v := range row {
				if f := tc.sp.F(i, j); math.Float64bits(f) != math.Float64bits(v) {
					t.Fatalf("%s: (%d,%d): Row %v != F %v", tc.name, i, j, v, f)
				}
			}
		}
	}
}
