package remote

import (
	"context"
	"fmt"
	"sync"
	"time"

	"decaynet/internal/shard"
)

// FaultPlan schedules deterministic fault injection on a Transport. Each
// *Every field fires on every Nth scan call of the wrapped slot (0 never
// fires); distinct primes keep the classes mostly disjoint. Counters are
// per slot and persist across redials, and per-slot scan calls are
// serialized by the pool's member lock, so a plan replays identically for
// a given job sequence — the property the equivalence wall leans on.
// When several classes fire on the same call, the first in field order
// (drop, delay, err, stale, crash) wins.
type FaultPlan struct {
	// DropEvery swallows the reply: the call blocks until its deadline and
	// the pool sees a timeout.
	DropEvery int
	// DelayEvery stalls the call for Delay before serving it — a slow
	// worker that still answers.
	DelayEvery int
	Delay      time.Duration
	// ErrEvery answers with an internal worker error.
	ErrEvery int
	// StaleEvery answers with a stale-version error, as a worker that
	// missed a mutation batch would — the pool must cure it with a Sync.
	StaleEvery int
	// CrashEvery closes the connection mid-job — a worker process dying.
	CrashEvery int
}

// FaultInjector carries a FaultPlan's per-slot call counters. Counters
// survive redials (the pool re-Wraps on every admit), so injection
// schedules keep advancing across crashes instead of resetting.
type FaultInjector struct {
	plan FaultPlan

	mu    sync.Mutex
	calls map[int]*int
}

// NewFaultInjector returns an injector for plan; its Wrap method is the
// PoolConfig.Wrap seam.
func NewFaultInjector(plan FaultPlan) *FaultInjector {
	return &FaultInjector{plan: plan, calls: make(map[int]*int)}
}

// Wrap wraps slot's transport with the injector's plan.
func (f *FaultInjector) Wrap(slot int, t Transport) Transport {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.calls[slot]
	if !ok {
		n = new(int)
		f.calls[slot] = n
	}
	return &faultTransport{f: f, inner: t, n: n}
}

// faultTransport injects the plan's faults ahead of scan calls. Sync,
// Mutate and Ping pass through untouched: heartbeats run concurrently
// with jobs, so counting them would destroy determinism, and the recovery
// exchanges must be allowed to actually recover.
type faultTransport struct {
	f     *FaultInjector
	inner Transport
	n     *int
}

// injected is a synthetic transport-level failure.
type injected struct{ msg string }

func (e *injected) Error() string { return "remote: injected fault: " + e.msg }

// fault advances the slot's call counter and applies the scheduled fault,
// if any. A nil return with ok=true means the call proceeds to the inner
// transport.
func (t *faultTransport) fault(ctx context.Context) (ok bool, err error) {
	t.f.mu.Lock()
	*t.n++
	n := *t.n
	plan := t.f.plan
	t.f.mu.Unlock()
	fires := func(every int) bool { return every > 0 && n%every == 0 }
	switch {
	case fires(plan.DropEvery):
		<-ctx.Done()
		return false, fmt.Errorf("%w (dropped reply)", ctx.Err())
	case fires(plan.DelayEvery):
		timer := time.NewTimer(plan.Delay)
		defer timer.Stop()
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-timer.C:
		}
		return true, nil
	case fires(plan.ErrEvery):
		return false, &Error{Kind: KindInternal, Msg: "injected worker error"}
	case fires(plan.StaleEvery):
		return false, &Error{Kind: KindStale, Msg: "injected stale replica"}
	case fires(plan.CrashEvery):
		t.inner.Close()
		return false, &injected{msg: "connection crashed mid-job"}
	}
	return true, nil
}

func (t *faultTransport) Max(ctx context.Context, job shard.ScanJob) (shard.MaxResult, error) {
	if ok, err := t.fault(ctx); !ok {
		return shard.MaxResult{}, err
	}
	return t.inner.Max(ctx, job)
}

func (t *faultTransport) Band(ctx context.Context, job shard.BandJob) (shard.BandResult, error) {
	if ok, err := t.fault(ctx); !ok {
		return shard.BandResult{}, err
	}
	return t.inner.Band(ctx, job)
}

func (t *faultTransport) Repair(ctx context.Context, job shard.RepairJob) (shard.BandResult, error) {
	if ok, err := t.fault(ctx); !ok {
		return shard.BandResult{}, err
	}
	return t.inner.Repair(ctx, job)
}

func (t *faultTransport) Sync(ctx context.Context, snap SyncJob) error {
	return t.inner.Sync(ctx, snap)
}

func (t *faultTransport) Mutate(ctx context.Context, mut MutateJob) error {
	return t.inner.Mutate(ctx, mut)
}

func (t *faultTransport) Ping(ctx context.Context) (PingResult, error) {
	return t.inner.Ping(ctx)
}

func (t *faultTransport) Close() error { return t.inner.Close() }
