package shard_test

import (
	"context"
	"errors"
	"testing"

	"decaynet/internal/core"
	"decaynet/internal/shard"
)

// rowSource hides a matrix behind core.RowSpace, so NewReplica streams it.
type rowSource struct{ core.RowSpace }

// streamed builds a coordinator with k in-process shard workers over a
// streamed replica of m (non-positive tile geometry selects the defaults).
func streamed(ctx context.Context, m *core.Matrix, k, tileRows, maxTiles int) (*shard.Coordinator, error) {
	rep, err := shard.NewReplica(ctx, rowSource{m}, 1e-12, tileRows, maxTiles)
	if err != nil {
		return nil, err
	}
	workers := make([]shard.Worker, k)
	for i := range workers {
		workers[i] = shard.NewLocalWorker(rep)
	}
	return shard.New(rep, workers)
}

// TestStreamedScansMatchDense: a streamed coordinator (row-paged replica,
// no dense matrix) merges the same ζ/ϕ as the unsharded kernels, bit
// for bit, across shard counts and symmetry — the out-of-core contract the
// tiered sessions rely on.
func TestStreamedScansMatchDense(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{3, 24, 64} {
		for _, sym := range []bool{false, true} {
			var m *core.Matrix
			if sym {
				m = symMatrix(t, n, uint64(n)+100)
			} else {
				m = randMatrix(t, n, uint64(n)+100)
			}
			wantZ := core.ZetaTol(m, 1e-12)
			wantV := core.Varphi(m)
			for _, k := range []int{0, 1, 3, 8} {
				// Tiny tiles force real paging traffic during the scans.
				c, err := streamed(ctx, m, k, 7, 2)
				if err != nil {
					t.Fatal(err)
				}
				z, err := c.Max(ctx, shard.Zeta)
				if err != nil {
					t.Fatal(err)
				}
				if z != wantZ {
					t.Fatalf("n=%d sym=%v k=%d: streamed zeta %v, core %v", n, sym, k, z, wantZ)
				}
				v, err := c.Max(ctx, shard.Varphi)
				if err != nil {
					t.Fatal(err)
				}
				if v != wantV {
					t.Fatalf("n=%d sym=%v k=%d: streamed varphi %v, core %v", n, sym, k, v, wantV)
				}
			}
		}
	}
}

// TestStreamedImmutablePhases: tracker seeding and repairs — the mutable
// session machinery — report ErrStreamed on a streamed coordinator.
func TestStreamedImmutablePhases(t *testing.T) {
	ctx := context.Background()
	m := randMatrix(t, 16, 9)
	c, err := streamed(ctx, m, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Replica().Streamed() {
		t.Fatal("streamed coordinator's replica does not report Streamed")
	}
	for _, p := range []shard.Param{shard.Zeta, shard.Varphi} {
		if _, _, err := c.Tracker(ctx, p); !errors.Is(err, shard.ErrStreamed) {
			t.Fatalf("Tracker(%d) err = %v, want ErrStreamed", p, err)
		}
		if _, err := c.Repair(ctx, p, nil, []int{1}, true); !errors.Is(err, shard.ErrStreamed) {
			t.Fatalf("Repair(%d) err = %v, want ErrStreamed", p, err)
		}
	}
}

// TestStreamedCancellation: construction and scans propagate cancellation.
func TestStreamedCancellation(t *testing.T) {
	m := randMatrix(t, 64, 3)
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := streamed(pre, m, 2, 0, 0); err != context.Canceled {
		t.Fatalf("pre-cancelled streamed NewReplica err = %v", err)
	}
	for _, k := range []int{0, 2} {
		c, err := streamed(context.Background(), m, k, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Max(pre, shard.Zeta); err != context.Canceled {
			t.Fatalf("k=%d: pre-cancelled streamed Zeta err = %v", k, err)
		}
		if _, err := c.Max(pre, shard.Varphi); err != context.Canceled {
			t.Fatalf("k=%d: pre-cancelled streamed Varphi err = %v", k, err)
		}
	}
}
