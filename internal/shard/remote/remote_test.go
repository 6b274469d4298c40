package remote

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"decaynet/internal/core"
	"decaynet/internal/shard"
)

// testSpace builds a small deterministic dense space.
func testSpace(t testing.TB, n int) *core.Matrix {
	t.Helper()
	m, err := core.NewMatrixFlat(n, func() []float64 {
		flat := make([]float64, n*n)
		state := uint64(42)
		for i := range flat {
			state = state*6364136223846793005 + 1442695040888963407
			flat[i] = 0.5 + float64(state>>40)/1000
		}
		for i := 0; i < n; i++ {
			flat[i*n+i] = 0
		}
		return flat
	}())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// replica wraps m as a dense replica at tolerance 1e-12.
func replica(t testing.TB, m *core.Matrix) *shard.Replica {
	t.Helper()
	rep, err := shard.NewReplica(context.Background(), m, 1e-12, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func flatten(m *core.Matrix) Floats {
	n := m.N()
	flat := make([]float64, n*n)
	for i := 0; i < n; i++ {
		m.Row(i, flat[i*n:(i+1)*n])
	}
	return flat
}

func TestFloatsRoundTrip(t *testing.T) {
	in := Floats{0, 1, -1, 0.1, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1)}
	data, err := in.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var out Floats
	if err := out.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("%d values round-tripped to %d", len(in), len(out))
	}
	for i := range in {
		if math.Float64bits(in[i]) != math.Float64bits(out[i]) {
			t.Fatalf("value %d: %v (bits %x) became %v (bits %x)", i, in[i], math.Float64bits(in[i]), out[i], math.Float64bits(out[i]))
		}
	}
	if err := out.UnmarshalJSON([]byte(`"AAA"`)); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if err := out.UnmarshalJSON([]byte(`123`)); err == nil {
		t.Fatal("non-string payload accepted")
	}
}

func TestFrameRoundTripAndLimit(t *testing.T) {
	var buf bytes.Buffer
	req := request{ID: 7, Method: methodPing}
	if err := writeFrame(&buf, req); err != nil {
		t.Fatal(err)
	}
	body, err := readFrame(&buf, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"ping"`)) {
		t.Fatalf("frame body %q lost the method", body)
	}

	buf.Reset()
	if err := writeFrame(&buf, request{ID: 8, Method: methodPing}); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(&buf, 4); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// startServer serves one in-process worker, returning its address.
func startServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(ctx, ln, ServerOptions{})
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String()
}

// TestClientServerFencing drives the protocol end to end: the no-replica
// and stale-version answers, the Sync handshake, fenced scans matching a
// local worker bit-for-bit, and version-fenced mutation batches.
func TestClientServerFencing(t *testing.T) {
	addr := startServer(t)
	var ver atomic.Uint64
	c, err := Dial(addr, DialOptions{Version: ver.Load})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	m := testSpace(t, 12)
	job := shard.ScanJob{Rows: shard.Range{Lo: 0, Hi: 12}}

	if _, err := c.Max(ctx, job); !NeedsSync(err) {
		t.Fatalf("scan before Sync: err = %v, want no_replica", err)
	}
	if pr, err := c.Ping(ctx); err != nil || pr.Synced {
		t.Fatalf("ping before Sync = %+v, %v", pr, err)
	}

	if err := c.Sync(ctx, SyncJob{N: 12, Tol: 1e-12, Version: 0, Flat: flatten(m)}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Max(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	want, err := shard.NewLocalWorker(replica(t, m.Clone())).Max(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Max) != math.Float64bits(want.Max) {
		t.Fatalf("remote Max %v, local %v", got.Max, want.Max)
	}

	// A fence the worker has not reached: stale.
	ver.Store(1)
	if _, err := c.Max(ctx, job); !NeedsSync(err) {
		t.Fatalf("scan past fence: err = %v, want stale_version", err)
	}

	// A mutation fenced on the wrong base: stale, replica untouched.
	if err := c.Mutate(ctx, MutateJob{BaseVersion: 5, Version: 6}); !NeedsSync(err) {
		t.Fatalf("misfenced Mutate err = %v, want stale_version", err)
	}

	// The correctly fenced batch advances the worker to v1.
	row := make([]float64, 12)
	m.Row(3, row)
	row[5] = 123.5
	if err := m.SetRow(3, row); err != nil {
		t.Fatal(err)
	}
	if err := c.Mutate(ctx, MutateJob{
		BaseVersion: 0, Version: 1,
		Rows:  []RowEdit{{Index: 3, Vals: row}},
		Dirty: []int{3}, RowsOnly: true,
	}); err != nil {
		t.Fatal(err)
	}
	got, err = c.Max(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	want, err = shard.NewLocalWorker(replica(t, m.Clone())).Max(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Max) != math.Float64bits(want.Max) {
		t.Fatalf("post-mutate remote Max %v, local %v", got.Max, want.Max)
	}
	if pr, err := c.Ping(ctx); err != nil || !pr.Synced || pr.Version != 1 {
		t.Fatalf("ping after mutate = %+v, %v", pr, err)
	}
}

func TestClientCancelledContext(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Ping(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Ping err = %v", err)
	}
}

func TestClientClosedConnection(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Ping(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ping on closed client err = %v", err)
	}
}

// TestPoolHeartbeatDeathDetection kills an idle worker's server and
// asserts the heartbeat monitor declares it dead without any job traffic.
func TestPoolHeartbeatDeathDetection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, scancel := context.WithCancel(context.Background())
	sdone := make(chan struct{})
	go func() {
		defer close(sdone)
		Serve(sctx, ln, ServerOptions{})
	}()
	m := testSpace(t, 8)
	p, err := NewPool(PoolConfig{
		Addrs:           []string{ln.Addr().String()},
		PingInterval:    5 * time.Millisecond,
		PingTimeout:     100 * time.Millisecond,
		DeadAfterMisses: 2,
	}, replica(t, m))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	scancel() // SIGKILL stand-in
	<-sdone
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Deaths == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("heartbeats never declared the dead worker: %+v", p.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFaultInjectorCountersSurviveRewrap proves the injection schedule
// keeps advancing across redials: Wrap for the same slot shares one
// counter, so a crash-triggering call is not re-triggered forever.
func TestFaultInjectorCountersSurviveRewrap(t *testing.T) {
	inj := NewFaultInjector(FaultPlan{ErrEvery: 2})
	fake := &countingTransport{}
	w1 := inj.Wrap(0, fake)
	ctx := context.Background()
	job := shard.ScanJob{}
	if _, err := w1.Max(ctx, job); err != nil { // call 1: passes
		t.Fatalf("call 1: %v", err)
	}
	if _, err := w1.Max(ctx, job); err == nil { // call 2: injected
		t.Fatal("call 2 not injected")
	}
	w2 := inj.Wrap(0, fake)                     // redial: same slot, same counter
	if _, err := w2.Max(ctx, job); err != nil { // call 3: passes
		t.Fatalf("call 3: %v", err)
	}
	if _, err := w2.Max(ctx, job); err == nil { // call 4: injected
		t.Fatal("call 4 not injected")
	}
	if fake.calls.Load() != 2 {
		t.Fatalf("inner transport saw %d calls, want 2", fake.calls.Load())
	}
}

// countingTransport is a no-op Transport counting scan calls.
type countingTransport struct{ calls atomic.Int64 }

func (c *countingTransport) Max(context.Context, shard.ScanJob) (shard.MaxResult, error) {
	c.calls.Add(1)
	return shard.MaxResult{}, nil
}
func (c *countingTransport) Band(context.Context, shard.BandJob) (shard.BandResult, error) {
	return shard.BandResult{}, nil
}
func (c *countingTransport) Repair(context.Context, shard.RepairJob) (shard.BandResult, error) {
	return shard.BandResult{}, nil
}
func (c *countingTransport) Sync(context.Context, SyncJob) error      { return nil }
func (c *countingTransport) Mutate(context.Context, MutateJob) error  { return nil }
func (c *countingTransport) Ping(context.Context) (PingResult, error) { return PingResult{}, nil }
func (c *countingTransport) Close() error                             { return nil }

// TestServeGracefulShutdown cancels a serving context mid-session and
// asserts Serve returns nil with live connections torn down.
func TestServeGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- Serve(ctx, ln, ServerOptions{}) }()
	c, err := Dial(ln.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve returned %v on graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
	// The torn-down connection fails subsequent calls.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := c.Ping(context.Background()); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection survived server shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
