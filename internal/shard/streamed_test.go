package shard_test

import (
	"context"
	"errors"
	"testing"

	"decaynet/internal/core"
	"decaynet/internal/shard"
)

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
			for _, k := range []int{1, 3, 8} {
				// Tiny tiles force real paging traffic during the scans.
				c, err := shard.NewStreamed(ctx, m, 1e-12, k, 7, 2)
				if err != nil {
					t.Fatal(err)
				}
				z, err := c.Zeta(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if z != wantZ {
					t.Fatalf("n=%d sym=%v k=%d: streamed zeta %v, core %v", n, sym, k, z, wantZ)
				}
				v, err := c.Varphi(ctx)
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
	c, err := shard.NewStreamed(ctx, m, 1e-12, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Replica().Streamed() {
		t.Fatal("streamed coordinator's replica does not report Streamed")
	}
	if _, err := c.ZetaTracker(ctx); !errors.Is(err, shard.ErrStreamed) {
		t.Fatalf("ZetaTracker err = %v, want ErrStreamed", err)
	}
	if _, err := c.VarphiTracker(ctx); !errors.Is(err, shard.ErrStreamed) {
		t.Fatalf("VarphiTracker err = %v, want ErrStreamed", err)
	}
	if _, err := c.RepairZeta(ctx, nil, []int{1}, true); !errors.Is(err, shard.ErrStreamed) {
		t.Fatalf("RepairZeta err = %v, want ErrStreamed", err)
	}
	if _, err := c.RepairVarphi(ctx, nil, []int{1}, true); !errors.Is(err, shard.ErrStreamed) {
		t.Fatalf("RepairVarphi err = %v, want ErrStreamed", err)
	}
}

// TestStreamedCancellation: construction and scans propagate cancellation.
func TestStreamedCancellation(t *testing.T) {
	m := randMatrix(t, 64, 3)
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := shard.NewStreamed(pre, m, 1e-12, 2, 0, 0); err != context.Canceled {
		t.Fatalf("pre-cancelled NewStreamed err = %v", err)
	}
	c, err := shard.NewStreamed(context.Background(), m, 1e-12, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Zeta(pre); err != context.Canceled {
		t.Fatalf("pre-cancelled streamed Zeta err = %v", err)
	}
	if _, err := c.Varphi(pre); err != context.Canceled {
		t.Fatalf("pre-cancelled streamed Varphi err = %v", err)
	}
}
