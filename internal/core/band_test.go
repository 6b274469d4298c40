package core_test

import (
	"cmp"
	"context"
	"math"
	"slices"
	"testing"

	"decaynet/internal/core"
	"decaynet/internal/rng"
	"decaynet/internal/shard"
)

const bandTol = 1e-12

// sortedBand copies a candidate set and orders it by (x, y, z), so two
// sets compare as multisets.
func sortedBand(set []core.BandTriplet) []core.BandTriplet {
	out := slices.Clone(set)
	slices.SortFunc(out, func(a, b core.BandTriplet) int {
		return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y), cmp.Compare(a.Z, b.Z))
	})
	return out
}

// checkBand fails unless got is, bit for bit, the multiset want.
func checkBand(t *testing.T, what string, got, want []core.BandTriplet) {
	t.Helper()
	g, w := sortedBand(got), sortedBand(want)
	if len(g) != len(w) {
		t.Fatalf("%s: band has %d candidates, fresh collection %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i].X != w[i].X || g[i].Y != w[i].Y || g[i].Z != w[i].Z ||
			math.Float64bits(g[i].Val) != math.Float64bits(w[i].Val) {
			t.Fatalf("%s: candidate %d is %+v, fresh collection %+v", what, i, g[i], w[i])
		}
	}
}

// bandRoute builds ζ and ϕ trackers over m and returns them with the
// function that repairs both after a mutation of the dirty nodes.
type bandRoute func(t *testing.T, m *core.Matrix) (*core.ZetaTracker, *core.VarphiTracker, func(dirty []int, rowsOnly bool))

func poolRoute(t *testing.T, m *core.Matrix) (*core.ZetaTracker, *core.VarphiTracker, func([]int, bool)) {
	ctx := context.Background()
	zt, err := core.NewZetaTracker(ctx, m, bandTol)
	if err != nil {
		t.Fatal(err)
	}
	vt, err := core.NewVarphiTracker(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	return zt, vt, func(dirty []int, rowsOnly bool) {
		zt.Repair(dirty, rowsOnly)
		vt.Repair(dirty, rowsOnly)
	}
}

// coordRoute builds the trackers through a shard coordinator over m with
// k in-process shard workers, or with none (k = 0): the unsharded
// session's single worker on the pool.
func coordRoute(k int) bandRoute {
	return func(t *testing.T, m *core.Matrix) (*core.ZetaTracker, *core.VarphiTracker, func([]int, bool)) {
		ctx := context.Background()
		rep, err := shard.NewReplica(ctx, m, bandTol, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		workers := make([]shard.Worker, k)
		for i := range workers {
			workers[i] = shard.NewLocalWorker(rep)
		}
		c, err := shard.New(rep, workers)
		if err != nil {
			t.Fatal(err)
		}
		zt, _, err := c.Tracker(ctx, shard.Zeta)
		if err != nil {
			t.Fatal(err)
		}
		vt, _, err := c.Tracker(ctx, shard.Varphi)
		if err != nil {
			t.Fatal(err)
		}
		return zt.(*core.ZetaTracker), vt.(*core.VarphiTracker), func(dirty []int, rowsOnly bool) {
			if _, err := c.Repair(ctx, shard.Zeta, zt, dirty, rowsOnly); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Repair(ctx, shard.Varphi, vt, dirty, rowsOnly); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// bandMax returns the strongest candidate of a non-empty band.
func bandMax(set []core.BandTriplet) core.BandTriplet {
	return slices.MaxFunc(set, func(a, b core.BandTriplet) int { return cmp.Compare(a.Val, b.Val) })
}

// TestTrackerBandComplete holds the candidate band itself, not only its
// maximum, to the tracker contract: after every repair of a seeded
// mutation sequence the ζ and ϕ bands equal, bit for bit, a fresh
// collection of every triplet above the tracker's floor on the mutated
// matrix. The sequence mixes whole-row rewrites, single-entry edits,
// decreases of the current maximiser (row-only mutations, which keep the
// candidates whose read rows are clean) and row-and-column rewrites.
func TestTrackerBandComplete(t *testing.T) {
	routes := []struct {
		name  string
		build bandRoute
	}{{"pool", poolRoute}, {"shard", coordRoute(3)}, {"unsharded", coordRoute(0)}}
	const n = 40
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			src := rng.New(5)
			m, err := core.FromFunc(n, func(i, j int) float64 { return src.Range(0.5, 50) })
			if err != nil {
				t.Fatal(err)
			}
			zt, vt, repair := rt.build(t, m)
			set := func(i, j int, v float64) {
				if err := m.Set(i, j, v); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 40; step++ {
				var dirty []int
				rowsOnly := true
				switch step % 5 {
				case 0: // whole-row rewrites
					seen := map[int]bool{}
					for len(dirty) < 1+step%3 {
						r := src.Intn(n)
						if seen[r] {
							continue
						}
						seen[r] = true
						dirty = append(dirty, r)
						for j := 0; j < n; j++ {
							set(r, j, src.Range(0.5, 50))
						}
					}
				case 1: // one decay
					i, j := src.Intn(n), src.Intn(n)
					if i == j {
						j = (i + 1) % n
					}
					set(i, j, src.Range(0.5, 50))
					dirty = []int{i}
				case 2: // lower f(x,y), the numerator-side decay of the ζ maximiser
					if band := zt.Band(); len(band) > 0 {
						c := bandMax(band)
						set(int(c.X), int(c.Y), m.F(int(c.X), int(c.Y))/4)
						dirty = []int{int(c.X)}
					}
				case 3: // lower f(x,z), the numerator of the ϕ maximiser
					if band := vt.Band(); len(band) > 0 {
						c := bandMax(band)
						set(int(c.X), int(c.Z), m.F(int(c.X), int(c.Z))/4)
						dirty = []int{int(c.X)}
					}
				case 4: // a node's row and column, as a move rewrites them; the
					// wide column puts new maxima in the slices only a
					// column repair rescans
					r := src.Intn(n)
					for j := 0; j < n; j++ {
						set(r, j, src.Range(0.5, 50))
						set(j, r, src.Range(0.5, 500))
					}
					dirty, rowsOnly = []int{r}, false
				}
				if len(dirty) == 0 {
					continue
				}
				repair(dirty, rowsOnly)
				ctx := context.Background()
				zs, err := core.NewZetaScanState(ctx, m, bandTol)
				if err != nil {
					t.Fatal(err)
				}
				wantZ, err := zs.CollectRange(ctx, 0, n, zt.Floor(), false)
				if err != nil {
					t.Fatal(err)
				}
				checkBand(t, "zeta", zt.Band(), wantZ)
				wantV, err := core.NewVarphiScanState(m).CollectRange(ctx, 0, n, vt.Floor(), false)
				if err != nil {
					t.Fatal(err)
				}
				checkBand(t, "varphi", vt.Band(), wantV)
				if got, want := zt.Zeta(), core.ZetaTol(m, bandTol); got != want {
					t.Fatalf("step %d: tracked zeta %v, full scan %v", step, got, want)
				}
				if got, want := vt.Varphi(), core.Varphi(m); got != want {
					t.Fatalf("step %d: tracked varphi %v, full scan %v", step, got, want)
				}
			}
		})
	}
}
