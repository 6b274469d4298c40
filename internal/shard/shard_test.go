package shard_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"decaynet/internal/core"
	"decaynet/internal/rng"
	"decaynet/internal/shard"
)

// randMatrix builds a deterministic asymmetric dense space.
func randMatrix(t *testing.T, n int, seed uint64) *core.Matrix {
	t.Helper()
	src := rng.New(seed)
	m, err := core.FromFunc(n, func(i, j int) float64 { return src.Range(0.5, 50) })
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// symMatrix builds a deterministic exactly symmetric dense space.
func symMatrix(t *testing.T, n int, seed uint64) *core.Matrix {
	t.Helper()
	return core.Symmetrized(randMatrix(t, n, seed))
}

// coordinator builds a coordinator over a dense replica of m with k
// in-process shard workers, or with none (k = 0): the unsharded session's
// single worker on the shared pool.
func coordinator(t *testing.T, m *core.Matrix, k int) *shard.Coordinator {
	t.Helper()
	rep, err := shard.NewReplica(context.Background(), m, 1e-12, 0, 0)
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
	return c
}

func TestSplit(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{0, 1}, {1, 1}, {7, 3}, {8, 3}, {9, 3}, {16, 1}, {5, 8}, {100, 7},
	} {
		ranges := shard.Split(tc.n, tc.k)
		if len(ranges) != tc.k {
			t.Fatalf("Split(%d,%d): %d ranges", tc.n, tc.k, len(ranges))
		}
		covered := 0
		prev := 0
		for _, r := range ranges {
			if r.Lo != prev || r.Hi < r.Lo {
				t.Fatalf("Split(%d,%d): non-contiguous ranges %v", tc.n, tc.k, ranges)
			}
			covered += r.Len()
			prev = r.Hi
		}
		if covered != tc.n || prev != tc.n {
			t.Fatalf("Split(%d,%d) covers %d rows: %v", tc.n, tc.k, covered, ranges)
		}
	}
	if got := shard.Split(10, 0); len(got) != 1 || got[0] != (shard.Range{Lo: 0, Hi: 10}) {
		t.Fatalf("Split clamp: %v", got)
	}
}

// TestShardedScansMatchCore: the coordinator's merged ζ/ϕ equal the
// unsharded kernels bit for bit, for asymmetric and exactly symmetric
// spaces across shard counts (including K > n, and the single pool worker
// of an unsharded session).
func TestShardedScansMatchCore(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{3, 5, 24, 64} {
		for _, sym := range []bool{false, true} {
			var m *core.Matrix
			if sym {
				m = symMatrix(t, n, uint64(n))
			} else {
				m = randMatrix(t, n, uint64(n))
			}
			wantZ := core.ZetaTol(m, 1e-12)
			wantV := core.Varphi(m)
			for _, k := range []int{0, 1, 2, 3, 8, n + 3} {
				c := coordinator(t, m, k)
				z, err := c.Max(ctx, shard.Zeta)
				if err != nil {
					t.Fatal(err)
				}
				if z != wantZ {
					t.Fatalf("n=%d sym=%v k=%d: sharded zeta %v, core %v", n, sym, k, z, wantZ)
				}
				v, err := c.Max(ctx, shard.Varphi)
				if err != nil {
					t.Fatal(err)
				}
				if v != wantV {
					t.Fatalf("n=%d sym=%v k=%d: sharded varphi %v, core %v", n, sym, k, v, wantV)
				}
			}
		}
	}
}

// TestShardedTrackerMatchesPool: a tracker seeded through the shards
// tracks the same values as the pool-built tracker, across a mutation
// sequence repaired through the shards, and both match from-scratch scans
// of the mutated matrix.
func TestShardedTrackerMatchesPool(t *testing.T) {
	ctx := context.Background()
	n := 48
	mShard := randMatrix(t, n, 7)
	mPool := mShard.Clone()
	c := coordinator(t, mShard, 3)
	zs, z0, err := c.Tracker(ctx, shard.Zeta)
	if err != nil {
		t.Fatal(err)
	}
	vs, v0, err := c.Tracker(ctx, shard.Varphi)
	if err != nil {
		t.Fatal(err)
	}
	zp, err := core.NewZetaTracker(ctx, mPool, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := core.NewVarphiTracker(ctx, mPool)
	if err != nil {
		t.Fatal(err)
	}
	if z0 != zp.Zeta() || v0 != vp.Varphi() {
		t.Fatalf("seeded trackers diverge: zeta %v vs %v, varphi %v vs %v", z0, zp.Zeta(), v0, vp.Varphi())
	}
	src := rng.New(99)
	// Steps 0–5 rewrite one row; steps 6–9 rewrite a row and its column
	// (a node move), which keeps the slices a row-only repair skips.
	for step := 0; step < 10; step++ {
		r := int(src.Uint64() % uint64(n))
		row := make([]float64, n)
		for j := range row {
			if j != r {
				row[j] = src.Range(0.5, 50)
			}
		}
		if err := mShard.SetRow(r, row); err != nil {
			t.Fatal(err)
		}
		if err := mPool.SetRow(r, row); err != nil {
			t.Fatal(err)
		}
		rowsOnly := step < 6
		if !rowsOnly {
			for i := 0; i < n; i++ {
				v := src.Range(0.5, 500) // wide: the new maxima read the column
				if err := mShard.Set(i, r, v); err != nil {
					t.Fatal(err)
				}
				if err := mPool.Set(i, r, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		dirty := []int{r}
		zS, err := c.Repair(ctx, shard.Zeta, zs, dirty, rowsOnly)
		if err != nil {
			t.Fatal(err)
		}
		vS, err := c.Repair(ctx, shard.Varphi, vs, dirty, rowsOnly)
		if err != nil {
			t.Fatal(err)
		}
		if zP := zp.Repair(dirty, rowsOnly); zS != zP {
			t.Fatalf("step %d: sharded zeta repair %v, pool %v", step, zS, zP)
		}
		if vP := vp.Repair(dirty, rowsOnly); vS != vP {
			t.Fatalf("step %d: sharded varphi repair %v, pool %v", step, vS, vP)
		}
		if want := core.ZetaTol(mShard, 1e-12); zS != want {
			t.Fatalf("step %d: sharded zeta %v, fresh scan %v", step, zS, want)
		}
		if want := core.Varphi(mShard); vS != want {
			t.Fatalf("step %d: sharded varphi %v, fresh scan %v", step, vS, want)
		}
	}
}

// TestShardedCancellation: a pre-cancelled context returns immediately
// from every coordinator op, and a mid-scan cancellation returns promptly
// from all workers.
func TestShardedCancellation(t *testing.T) {
	m := randMatrix(t, 300, 5)
	c := coordinator(t, m, 4)
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Max(pre, shard.Zeta); err != context.Canceled {
		t.Fatalf("pre-cancelled Zeta err = %v", err)
	}
	if _, err := c.Max(pre, shard.Varphi); err != context.Canceled {
		t.Fatalf("pre-cancelled Varphi err = %v", err)
	}
	if _, _, err := c.Tracker(pre, shard.Zeta); err != context.Canceled {
		t.Fatalf("pre-cancelled ZetaTracker err = %v", err)
	}

	ctx, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel2()
	}()
	start := time.Now()
	_, err := c.Max(ctx, shard.Zeta)
	elapsed := time.Since(start)
	if err != context.Canceled && err != context.DeadlineExceeded {
		// The scan may legitimately finish before the cancel fires on a
		// fast machine; only a hang or a wrong error is a failure.
		if err != nil {
			t.Fatalf("mid-scan Zeta err = %v", err)
		}
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled sharded Zeta took %v", elapsed)
	}
}

// TestEachRange: the fan-out dispatches every row of a Split exactly
// once and propagates the first error.
func TestEachRange(t *testing.T) {
	ranges := shard.Split(100, 4)
	seen := make([]bool, 100)
	err := shard.EachRange(context.Background(), ranges, func(ctx context.Context, s int, r shard.Range) error {
		for i := r.Lo; i < r.Hi; i++ {
			seen[i] = true // disjoint ranges: no two shards write the same cell
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("row %d never dispatched", i)
		}
	}
	// An erroring shard cancels the others' contexts.
	errBoom := context.DeadlineExceeded
	err = shard.EachRange(context.Background(), ranges, func(ctx context.Context, s int, r shard.Range) error {
		if s == 2 {
			return errBoom
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if err != errBoom {
		t.Fatalf("EachRange err = %v, want first error", err)
	}
}

// TestUnshardedZetaKeepsNoScreen: the unsharded session's untracked ζ
// read builds its n×n screen for the scan only, as core.ZetaTolCtx does,
// while in-process shards share one cached on the replica.
func TestUnshardedZetaKeepsNoScreen(t *testing.T) {
	const n = 400
	screen := uint64(n * n * 8)
	for _, tc := range []struct {
		k    int
		keep bool
	}{{0, false}, {2, true}} {
		m := randMatrix(t, n, 11)
		c := coordinator(t, m, tc.k)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := c.Max(context.Background(), shard.Zeta); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if kept >= int64(screen)/2 != tc.keep {
			t.Fatalf("k=%d: ζ read kept %d bytes live (screen %d bytes), want kept=%v", tc.k, kept, screen, tc.keep)
		}
		runtime.KeepAlive(c)
	}
}
