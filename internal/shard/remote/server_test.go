package remote

import (
	"context"
	"errors"
	"net"
	"testing"

	"decaynet/internal/shard"
)

// syncedClient dials a fresh in-process worker and syncs a dense n-node
// replica at version 0.
func syncedClient(t *testing.T, n int) *Client {
	t.Helper()
	c, err := Dial(startServer(t), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Sync(context.Background(), SyncJob{N: n, Tol: 1e-12, Flat: flatten(testSpace(t, n))}); err != nil {
		t.Fatal(err)
	}
	return c
}

// wantKind requires err to be a worker answer of the given kind.
func wantKind(t *testing.T, tag string, err error, kind string) {
	t.Helper()
	var re *Error
	if !errors.As(err, &re) || re.Kind != kind {
		t.Fatalf("%s: err = %v, want a %s answer", tag, err, kind)
	}
}

// TestServerRejectsMalformedJobs: row ranges and dirty ids outside the
// replica are answered bad_request before any scan indexes with them, and
// the worker keeps serving afterwards.
func TestServerRejectsMalformedJobs(t *testing.T) {
	c := syncedClient(t, 4)
	ctx := context.Background()
	_, err := c.Max(ctx, shard.ScanJob{Rows: shard.Range{Lo: 0, Hi: 99}})
	wantKind(t, "Max rows [0,99)", err, KindBadRequest)
	_, err = c.Max(ctx, shard.ScanJob{Param: shard.Varphi, Rows: shard.Range{Lo: -1, Hi: 2}})
	wantKind(t, "Max rows [-1,2)", err, KindBadRequest)
	_, err = c.Max(ctx, shard.ScanJob{Param: shard.Varphi + 1, Rows: shard.Range{Lo: 0, Hi: 4}})
	wantKind(t, "Max of an unknown parameter", err, KindBadRequest)
	_, err = c.Band(ctx, shard.BandJob{Rows: shard.Range{Lo: 3, Hi: 2}})
	wantKind(t, "Band rows [3,2)", err, KindBadRequest)
	_, err = c.Band(ctx, shard.BandJob{Param: 200, Rows: shard.Range{Lo: 0, Hi: 4}})
	wantKind(t, "Band of an unknown parameter", err, KindBadRequest)
	_, err = c.Repair(ctx, shard.RepairJob{Rows: shard.Range{Lo: 0, Hi: 4}, Dirty: []int{99}})
	wantKind(t, "Repair dirty [99]", err, KindBadRequest)
	_, err = c.Repair(ctx, shard.RepairJob{Param: shard.Varphi, Rows: shard.Range{Lo: 0, Hi: 4}, Dirty: []int{-1}})
	wantKind(t, "Repair dirty [-1]", err, KindBadRequest)
	err = c.Mutate(ctx, MutateJob{Version: 1, Dirty: []int{4}})
	wantKind(t, "Mutate dirty [4]", err, KindBadRequest)

	if pr, err := c.Ping(ctx); err != nil || !pr.Synced || pr.Version != 0 {
		t.Fatalf("ping after malformed jobs = %+v, %v", pr, err)
	}
	if _, err := c.Max(ctx, shard.ScanJob{Rows: shard.Range{Lo: 0, Hi: 4}}); err != nil {
		t.Fatalf("well-formed scan after malformed jobs: %v", err)
	}
}

// panicWorker is a shard.Worker whose ζ max scans panic.
type panicWorker struct{ shard.Worker }

func (w panicWorker) Max(ctx context.Context, job shard.ScanJob) (shard.MaxResult, error) {
	if job.Param == shard.Zeta {
		panic("scan kernel fault")
	}
	return w.Worker.Max(ctx, job)
}

// TestServerRecoversPanic: a request whose scan panics is answered
// internal, and the connection goes on serving.
func TestServerRecoversPanic(t *testing.T) {
	srv, cli := net.Pipe()
	rep := replica(t, testSpace(t, 4))
	sc := &serverConn{c: srv, opts: &ServerOptions{}, rep: rep, work: panicWorker{shard.NewLocalWorker(rep)}, inflight: make(map[uint64]context.CancelFunc)}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc.run(ctx)
	}()
	c := NewClient(cli, DialOptions{})
	t.Cleanup(func() {
		c.Close()
		cancel()
		<-done
	})
	_, err := c.Max(context.Background(), shard.ScanJob{Rows: shard.Range{Lo: 0, Hi: 4}})
	wantKind(t, "panicking ζ Max", err, KindInternal)
	if _, err := c.Max(context.Background(), shard.ScanJob{Param: shard.Varphi, Rows: shard.Range{Lo: 0, Hi: 4}}); err != nil {
		t.Fatalf("scan after a recovered panic: %v", err)
	}
	if _, err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping after a recovered panic: %v", err)
	}
}
