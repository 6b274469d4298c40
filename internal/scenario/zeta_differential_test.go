package scenario

import (
	"context"
	"fmt"
	"math"
	"testing"

	"decaynet/internal/core"
	"decaynet/internal/rng"
	"decaynet/internal/shard"
)

// differentialSpace is one row of the ζ and ϕ differential tables.
type differentialSpace struct {
	label string
	space core.Space
}

// differentialSpaces returns every registered scenario at three sizes
// (n = 70 crosses the tiled-kernel threshold) and two seeds, the paper's
// hardness constructions at larger sizes, and random matrices: asymmetric
// ones, a symmetrized one, one spanning 10^±250 (G's exponents reach the
// hundreds), and one of decays near 10^301, past the range in which the
// exact scan's linear screen stays on.
func differentialSpaces(t *testing.T) []differentialSpace {
	t.Helper()
	var out []differentialSpace
	add := func(label, name string, cfg Config) {
		inst, err := Build(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		out = append(out, differentialSpace{label, inst.Space})
	}
	for _, tc := range registryCases(t, []int{12, 40, 70}, []uint64{1, 7}) {
		add(tc.label, tc.name, tc.cfg)
	}
	for _, nodes := range []int{24, 48} {
		for _, name := range []string{"theorem3", "theorem6"} {
			add(fmt.Sprintf("%s/vertices%d", name, nodes), name, Config{Nodes: nodes, Seed: 3})
		}
	}
	add("welzl/n40", "welzl", Config{Nodes: 38, Params: map[string]float64{"eps": 0.1}})
	matrix := func(label string, n int, seed uint64, lo, hi float64) *core.Matrix {
		src := rng.New(seed)
		lgLo, lgHi := math.Log10(lo), math.Log10(hi)
		m, err := core.FromFunc(n, func(i, j int) float64 { return math.Pow(10, src.Range(lgLo, lgHi)) })
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return m
	}
	for _, n := range []int{5, 33, 80} {
		out = append(out, differentialSpace{fmt.Sprintf("random-asym/n%d", n), matrix("asym", n, uint64(n), 0.01, 100)})
	}
	out = append(out,
		differentialSpace{"random-sym/n64", core.Symmetrized(matrix("sym", 64, 9, 0.1, 1000))},
		differentialSpace{"random-wide/n40", matrix("wide", 40, 11, 1e-250, 1e250)},
		differentialSpace{"random-huge/n40", matrix("huge", 40, 12, 1e301, 2e301)},
	)
	return out
}

// route is one exact ζ or ϕ route's value on a table space.
type route struct {
	name string
	v    float64
}

// zetaRoutes returns every exact ζ route's value on space at tol: the
// unsharded scan core.ZetaTolCtx, the shard.New coordinator,
// NewZetaTracker's initial value and a row-paged streamed session
// (shard.NewStreamed, tiny tiles so rows really page).
func zetaRoutes(t *testing.T, space core.Space, tol float64) []route {
	t.Helper()
	ctx := context.Background()
	must := func(v float64, err error) float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	m := core.Dense(space)
	coord, err := shard.New(m, tol, 3)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := core.NewZetaTracker(ctx, m.Clone(), tol)
	if err != nil {
		t.Fatal(err)
	}
	streamCoord, err := shard.NewStreamed(ctx, core.Rows(space), tol, 2, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []route{
		{"ZetaTolCtx", must(core.ZetaTolCtx(ctx, space, tol))},
		{"shard.New", must(coord.Zeta(ctx))},
		{"NewZetaTracker", tracker.Zeta()},
		{"shard.NewStreamed", must(streamCoord.Zeta(ctx))},
	}
}

// TestZetaDifferentialTable: on every space of the table, every exact ζ
// route (zetaRoutes) returns the serial per-pair oracle's bits, at the
// tight tolerance and at the ablation's coarsest, 1e-3. At 1e-3 many
// triplets tie within tolerance of the maximum, so ZetaTol also runs four
// times there and must return the oracle's bits every time: which tile
// meets a tie first must not decide the result.
func TestZetaDifferentialTable(t *testing.T) {
	spaces := differentialSpaces(t)
	for _, tc := range spaces {
		for _, tol := range []float64{1e-12, 1e-3} {
			want := core.ZetaPerPair(tc.space, tol)
			for _, r := range zetaRoutes(t, tc.space, tol) {
				if math.Float64bits(r.v) != math.Float64bits(want) {
					t.Errorf("%s tol=%g: %s ζ %v, per-pair %v", tc.label, tol, r.name, r.v, want)
				}
			}
		}
		want := core.ZetaPerPair(tc.space, 1e-3)
		for run := 0; run < 4; run++ {
			if z := core.ZetaTol(tc.space, 1e-3); math.Float64bits(z) != math.Float64bits(want) {
				t.Errorf("%s tol=1e-3 run %d: ζ %v, per-pair %v", tc.label, run, z, want)
			}
		}
	}
	if len(spaces) < 80 {
		t.Fatalf("differential table has %d spaces, want ≥ 80", len(spaces))
	}
}

// TestVarphiDifferentialTable is the ϕ table: core.Varphi, the shard.New
// coordinator, NewVarphiTracker's initial value and a row-paged streamed
// session return VarphiPerPair's bits on every space of the table.
func TestVarphiDifferentialTable(t *testing.T) {
	ctx := context.Background()
	for _, tc := range differentialSpaces(t) {
		want := core.VarphiPerPair(tc.space)
		m := core.Dense(tc.space)
		coord, err := shard.New(m, 1e-12, 3)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := coord.Varphi(ctx)
		if err != nil {
			t.Fatal(err)
		}
		tracker, err := core.NewVarphiTracker(ctx, m.Clone())
		if err != nil {
			t.Fatal(err)
		}
		streamCoord, err := shard.NewStreamed(ctx, core.Rows(tc.space), 1e-12, 2, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := streamCoord.Varphi(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []route{
			{"Varphi", core.Varphi(tc.space)},
			{"shard.New", sharded},
			{"NewVarphiTracker", tracker.Varphi()},
			{"shard.NewStreamed", streamed},
		} {
			if math.Float64bits(r.v) != math.Float64bits(want) {
				t.Errorf("%s: %s ϕ %v, per-pair %v", tc.label, r.name, r.v, want)
			}
		}
	}
}
