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

func (w *blockingWorker) ZetaMax(ctx context.Context, _ shard.ScanJob) (shard.MaxResult, error) {
	return shard.MaxResult{}, w.block(ctx)
}
func (w *blockingWorker) ZetaBand(ctx context.Context, _ shard.BandJob) (shard.BandResult, error) {
	return shard.BandResult{}, w.block(ctx)
}
func (w *blockingWorker) ZetaRepair(ctx context.Context, _ shard.RepairJob) (shard.BandResult, error) {
	return shard.BandResult{}, w.block(ctx)
}
func (w *blockingWorker) VarphiMax(ctx context.Context, _ shard.ScanJob) (shard.MaxResult, error) {
	return shard.MaxResult{}, w.block(ctx)
}
func (w *blockingWorker) VarphiBand(ctx context.Context, _ shard.BandJob) (shard.BandResult, error) {
	return shard.BandResult{}, w.block(ctx)
}
func (w *blockingWorker) VarphiRepair(ctx context.Context, _ shard.RepairJob) (shard.BandResult, error) {
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

func (w *failingWorker) ZetaMax(context.Context, shard.ScanJob) (shard.MaxResult, error) {
	return shard.MaxResult{}, w.fail()
}
func (w *failingWorker) ZetaBand(context.Context, shard.BandJob) (shard.BandResult, error) {
	return shard.BandResult{}, w.fail()
}
func (w *failingWorker) ZetaRepair(context.Context, shard.RepairJob) (shard.BandResult, error) {
	return shard.BandResult{}, w.fail()
}
func (w *failingWorker) VarphiMax(context.Context, shard.ScanJob) (shard.MaxResult, error) {
	return shard.MaxResult{}, w.fail()
}
func (w *failingWorker) VarphiBand(context.Context, shard.BandJob) (shard.BandResult, error) {
	return shard.BandResult{}, w.fail()
}
func (w *failingWorker) VarphiRepair(context.Context, shard.RepairJob) (shard.BandResult, error) {
	return shard.BandResult{}, w.fail()
}

// TestEachRangeFirstErrorCancelsSiblings proves the coordinator's fan-out
// contract directly: when one shard's body fails, the sibling — blocked
// mid-scan — is cancelled promptly and EachRange returns the first error,
// not a deadlock and not the sibling's ctx.Err.
func TestEachRangeFirstErrorCancelsSiblings(t *testing.T) {
	m := randMatrix(t, 16, 5)
	coord, err := shard.New(m, 1e-12, 2)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	cancelled := make(chan struct{})
	boom := errors.New("shard 0 exploded")
	start := time.Now()
	err = coord.EachRange(context.Background(), m.N(), func(ctx context.Context, s int, r shard.Range) error {
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
// the public scan entry points with fake workers: a failing worker's
// error surfaces from Coordinator.Zeta (and Varphi) while the blocking
// sibling is unblocked by cancellation — asserted with real clocks, not
// just eventually.
func TestMaxPhaseFirstErrorCancelsSiblings(t *testing.T) {
	m := randMatrix(t, 16, 7)
	boom := errors.New("worker down")
	for _, tc := range []struct {
		name string
		call func(ctx context.Context, c *shard.Coordinator) error
	}{
		{"zeta", func(ctx context.Context, c *shard.Coordinator) error {
			_, err := c.Zeta(ctx)
			return err
		}},
		{"varphi", func(ctx context.Context, c *shard.Coordinator) error {
			_, err := c.Varphi(ctx)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blocker := newBlockingWorker()
			failer := &failingWorker{after: blocker.entered, err: boom}
			rep := shard.NewReplica(m.Clone(), 1e-12)
			coord, err := shard.NewWithWorkers(rep, []shard.Worker{failer, blocker})
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			err = tc.call(context.Background(), coord)
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

// TestNewWithWorkersValidation covers the constructor's error paths.
func TestNewWithWorkersValidation(t *testing.T) {
	if _, err := shard.NewWithWorkers(nil, []shard.Worker{newBlockingWorker()}); err == nil {
		t.Fatal("nil replica accepted")
	}
	rep := shard.NewReplica(randMatrix(t, 4, 1), 1e-12)
	if _, err := shard.NewWithWorkers(rep, nil); err == nil {
		t.Fatal("empty worker set accepted")
	}
	coord, err := shard.NewWithWorkers(rep, []shard.Worker{newBlockingWorker(), newBlockingWorker()})
	if err != nil {
		t.Fatal(err)
	}
	if coord.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", coord.Shards())
	}
}
