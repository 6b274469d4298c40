package shard_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"decaynet/internal/shard"
)

// blockingWorker blocks every scan until its context is cancelled,
// recording that cancellation reached it. It stands in for a sibling
// worker mid-scan when another shard fails first.
type blockingWorker struct {
	entered   chan struct{} // closed when the first scan starts
	cancelled chan struct{} // closed when the first scan observes ctx done
}

func newBlockingWorker() *blockingWorker {
	return &blockingWorker{entered: make(chan struct{}), cancelled: make(chan struct{})}
}

func (w *blockingWorker) block(ctx context.Context) error {
	select {
	case <-w.entered:
	default:
		close(w.entered)
	}
	<-ctx.Done()
	select {
	case <-w.cancelled:
	default:
		close(w.cancelled)
	}
	return ctx.Err()
}

func (w *blockingWorker) Max(ctx context.Context, _ shard.ScanJob) (shard.MaxResult, error) {
	return shard.MaxResult{}, w.block(ctx)
}
func (w *blockingWorker) Band(ctx context.Context, _ shard.BandJob) (shard.BandResult, error) {
	return shard.BandResult{}, w.block(ctx)
}
func (w *blockingWorker) Repair(ctx context.Context, _ shard.RepairJob) (shard.BandResult, error) {
	return shard.BandResult{}, w.block(ctx)
}

// failingWorker fails every scan after the sibling has entered its own.
type failingWorker struct {
	after chan struct{}
	err   error
}

func (w *failingWorker) fail() error {
	<-w.after
	return w.err
}

func (w *failingWorker) Max(context.Context, shard.ScanJob) (shard.MaxResult, error) {
	return shard.MaxResult{}, w.fail()
}
func (w *failingWorker) Band(context.Context, shard.BandJob) (shard.BandResult, error) {
	return shard.BandResult{}, w.fail()
}
func (w *failingWorker) Repair(context.Context, shard.RepairJob) (shard.BandResult, error) {
	return shard.BandResult{}, w.fail()
}

// TestEachRangeFirstErrorCancelsSiblings proves the coordinator's fan-out
// contract directly: when one shard's body fails, the sibling — blocked
// mid-scan — is cancelled promptly and EachRange returns the first error,
// not a deadlock and not the sibling's ctx.Err.
func TestEachRangeFirstErrorCancelsSiblings(t *testing.T) {
	entered := make(chan struct{})
	cancelled := make(chan struct{})
	boom := errors.New("shard 0 exploded")
	start := time.Now()
	err := shard.EachRange(context.Background(), shard.Split(16, 2), func(ctx context.Context, s int, r shard.Range) error {
		if s == 1 {
			close(entered)
			<-ctx.Done()
			close(cancelled)
			return ctx.Err()
		}
		<-entered // fail only once the sibling is provably mid-scan
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("EachRange error = %v, want the first shard error", err)
	}
	select {
	case <-cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("sibling shard was never cancelled")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("first-error return took %v", elapsed)
	}
}

// TestMaxPhaseFirstErrorCancelsSiblings drives the same property through
// the public scan entry point with fake workers: a failing worker's error
// surfaces from Coordinator.Max, for ζ and for ϕ, while the blocking
// sibling is unblocked by cancellation — asserted with real clocks, not
// just eventually.
func TestMaxPhaseFirstErrorCancelsSiblings(t *testing.T) {
	m := randMatrix(t, 16, 7)
	boom := errors.New("worker down")
	for _, tc := range []struct {
		name string
		p    shard.Param
	}{{"zeta", shard.Zeta}, {"varphi", shard.Varphi}} {
		t.Run(tc.name, func(t *testing.T) {
			blocker := newBlockingWorker()
			failer := &failingWorker{after: blocker.entered, err: boom}
			rep, err := shard.NewReplica(context.Background(), m.Clone(), 1e-12, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			coord, err := shard.New(rep, []shard.Worker{failer, blocker})
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err = coord.Max(context.Background(), tc.p)
			if !errors.Is(err, boom) {
				t.Fatalf("%s error = %v, want the failing worker's error", tc.name, err)
			}
			select {
			case <-blocker.cancelled:
			case <-time.After(2 * time.Second):
				t.Fatalf("%s: blocked sibling never cancelled", tc.name)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("%s: first-error return took %v", tc.name, elapsed)
			}
		})
	}
}

// TestNewValidation covers the constructor: a nil replica is rejected,
// no workers means the unsharded session's single pool worker, and an
// explicit set gets one row range per worker.
func TestNewValidation(t *testing.T) {
	if _, err := shard.New(nil, []shard.Worker{newBlockingWorker()}); err == nil {
		t.Fatal("nil replica accepted")
	}
	rep, err := shard.NewReplica(context.Background(), randMatrix(t, 4, 1), 1e-12, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.NewReplica(context.Background(), nil, 1e-12, 0, 0); err == nil {
		t.Fatal("nil space accepted")
	}
	unsharded, err := shard.New(rep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if unsharded.Shards() != 1 {
		t.Fatalf("unsharded Shards() = %d, want 1", unsharded.Shards())
	}
	coord, err := shard.New(rep, []shard.Worker{newBlockingWorker(), newBlockingWorker()})
	if err != nil {
		t.Fatal(err)
	}
	if coord.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", coord.Shards())
	}
}
