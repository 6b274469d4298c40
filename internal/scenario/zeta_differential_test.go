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

// differentialSpace is one row of the ζ differential table.
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

// tieSplits lists the table rows on which the routes are known to
// disagree in the last bits. The Sec 3.4 star space is an exact metric:
// every leaf–centre–leaf triplet meets the triangle inequality with
// equality, so its solved ζ sits within solver tolerance of the floor, and
// which of these ties is solved depends on the prune. The scans behind
// shard.New, NewZetaTracker and shard.NewStreamed add an AM-GM prune
// (b + c + 2·ln2·ζ ≥ 2a) that ZetaTolCtx and ZetaPerPair do not have, and
// on these ties the two tests round differently. The split predates the
// linear screen of ZetaTolCtx; the list shrinks when the kernels become one.
var tieSplits = map[string]bool{
	"star/n40/seed1": true, "star/n70/seed1": true,
	"star/n40/seed7": true, "star/n70/seed7": true,
}

// TestZetaDifferentialTable: every exact ζ route returns the same bits as
// the unsharded scan core.ZetaTolCtx on every space of the table — the
// shard.New coordinator, NewZetaTracker's initial value and a row-paged
// streamed session (shard.NewStreamed over a StreamScan) — and the serial
// per-pair oracle agrees within 1e-9. The rows of tieSplits instead agree
// within 1e-12 and must still split. At the ablation's coarsest tolerance,
// 1e-3, the scan stays within the ablation's claim: ζ moves by at most
// 1e-3 relative, against both the tight value and the per-pair oracle at
// the same tolerance.
func TestZetaDifferentialTable(t *testing.T) {
	ctx := context.Background()
	const tol = 1e-12
	spaces := differentialSpaces(t)
	for _, tc := range spaces {
		want, err := core.ZetaTolCtx(ctx, tc.space, tol)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		m := core.Dense(tc.space)
		coord, err := shard.New(m, tol, 3)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		sharded, err := coord.Zeta(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		tracker, err := core.NewZetaTracker(ctx, m.Clone(), tol)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		streamCoord, err := shard.NewStreamed(ctx, core.Rows(tc.space), tol, 2, 7, 2)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		streamed, err := streamCoord.Zeta(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		split := false
		for _, r := range []struct {
			route string
			z     float64
		}{
			{"shard.New", sharded},
			{"NewZetaTracker", tracker.Zeta()},
			{"shard.NewStreamed", streamed},
		} {
			if math.Float64bits(r.z) == math.Float64bits(want) {
				continue
			}
			split = true
			if !tieSplits[tc.label] || math.Abs(r.z-want) > 1e-12*want {
				t.Errorf("%s: %s ζ %v, ZetaTolCtx %v", tc.label, r.route, r.z, want)
			}
		}
		if tieSplits[tc.label] && !split {
			t.Errorf("%s: listed in tieSplits but every route agrees; drop it from the list", tc.label)
		}
		if ref := core.ZetaPerPair(tc.space, tol); math.Abs(want-ref) > 1e-9*ref {
			t.Errorf("%s: ZetaTolCtx %v, per-pair %v", tc.label, want, ref)
		}
		coarse := core.ZetaTol(tc.space, 1e-3)
		coarseRef := core.ZetaPerPair(tc.space, 1e-3)
		if math.Abs(coarse-want) > 1e-3*want || math.Abs(coarse-coarseRef) > 1e-3*coarseRef {
			t.Errorf("%s: tol 1e-3: ζ %v, tight %v, per-pair at 1e-3 %v", tc.label, coarse, want, coarseRef)
		}
	}
	if len(spaces) < 80 {
		t.Fatalf("differential table has %d spaces, want ≥ 80", len(spaces))
	}
}
