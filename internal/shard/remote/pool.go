package remote

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"decaynet/internal/shard"
	"decaynet/internal/tier"
)

// PoolConfig parameterizes a remote worker pool. The zero value of every
// field has a sensible default; only Addrs is required.
type PoolConfig struct {
	// Addrs lists the worker daemons, one shard slot each.
	Addrs []string
	// Dial opens a Transport to a worker. ver is the pool's replica-version
	// source; the transport must stamp every scan request with it. Nil uses
	// the TCP client.
	Dial func(addr string, ver func() uint64) (Transport, error)
	// Wrap, when non-nil, wraps each freshly dialed Transport — the seam
	// the fault-injection harness plugs into. Applied on every (re)dial.
	Wrap func(slot int, t Transport) Transport
	// JobTimeout bounds one attempt of one job on one worker (default 2m).
	JobTimeout time.Duration
	// MaxAttempts is the per-worker attempt budget for one job before the
	// worker is declared dead (default 3).
	MaxAttempts int
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between attempts (defaults 50ms and 2s); jitter in [0,backoff) is
	// added from a per-member seeded source.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// PingInterval and PingTimeout drive the heartbeat monitor (defaults
	// 5s and 2s). DeadAfterMisses consecutive failed pings declare an idle
	// worker dead (default 2). PingInterval < 0 disables heartbeats.
	PingInterval    time.Duration
	PingTimeout     time.Duration
	DeadAfterMisses int
	// Seed seeds the backoff jitter (deterministic tests).
	Seed int64
	// Logf, when non-nil, receives one line per lifecycle event (death,
	// resync, reassignment, local fallback).
	Logf func(format string, args ...any)
}

// setDefaults replaces every unset field with its default.
func (c *PoolConfig) setDefaults() {
	if c.Dial == nil {
		c.Dial = func(addr string, ver func() uint64) (Transport, error) {
			return Dial(addr, DialOptions{Version: ver})
		}
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.PingInterval == 0 {
		c.PingInterval = 5 * time.Second
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = 2 * time.Second
	}
	if c.DeadAfterMisses <= 0 {
		c.DeadAfterMisses = 2
	}
}

func (c *PoolConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Stats counts the pool's recovery actions since construction.
type Stats struct {
	// Deaths is how many times a worker was declared dead (job failures
	// exhausted its attempt budget, or heartbeats went unanswered).
	Deaths uint64
	// Revivals is how many dead workers were re-admitted after a fresh
	// Sync caught them up past the version fence.
	Revivals uint64
	// Resyncs counts Sync handshakes cured by a stale-version or
	// no-replica answer (revival Syncs included).
	Resyncs uint64
	// Reassigned counts jobs a sibling worker computed because the slot's
	// own worker was dead or failing.
	Reassigned uint64
	// LocalFallbacks counts jobs the coordinator computed on its own
	// replica because every remote worker was unavailable.
	LocalFallbacks uint64
}

// member is one shard slot's remote worker. Its mutex serializes every
// exchange on the transport's lifecycle (jobs, redials, syncs, mutation
// shipping) — heartbeats only TryLock, so they probe exactly when the
// member is idle.
type member struct {
	slot int
	addr string

	mu     sync.Mutex
	t      Transport
	dead   bool
	misses int
	rng    *rand.Rand
}

// Pool is the fault-tolerance layer: it owns one member per configured
// worker address, a local replica of the session space (the Sync snapshot
// source and graceful-degradation scan target), and the replica version
// fence. Workers() hands out one robust shard.Worker per slot; each routes
// jobs to its own member first, retries transient failures with capped
// exponential backoff, reassigns to surviving siblings when the member is
// declared dead, and falls back to the local replica when no remote
// worker is available — results are bit-identical no matter who computes,
// because every replica holds the same space and the coordinator merges
// by row range.
type Pool struct {
	cfg     PoolConfig
	rep     *shard.Replica
	local   shard.Worker
	snapFn  func(version uint64) SyncJob
	version atomic.Uint64
	members []*member
	closed  atomic.Bool

	deaths     atomic.Uint64
	revivals   atomic.Uint64
	resyncs    atomic.Uint64
	reassigned atomic.Uint64
	localFalls atomic.Uint64

	hbStop context.CancelFunc
	hbDone chan struct{}
}

// errMemberDead marks a member that exhausted its attempt budget.
var errMemberDead = errors.New("remote: worker declared dead")

// errPoolClosed fails every job on a closed pool: a closed session must
// neither redial its workers nor fall back to computing locally.
var errPoolClosed = fmt.Errorf("remote: pool closed: %w", ErrClosed)

// NewPool dials and syncs every configured worker, strictly: a worker
// that cannot be brought to the current version at construction fails the
// pool (later failures degrade gracefully instead). rep is the session's
// replica — the pool snapshots its space for Sync handshakes and scans it
// directly on local fallback — and its tolerance is the one every worker
// replica shares. A dense replica ships its matrix, re-read at every
// handshake because the session mutates it. A streamed replica over a
// *tier.Space ships the tiered snapshot plus the replica's scan extrema —
// O(K·n) on the wire for a model tail instead of n² — computed once, since
// tiered sessions never mutate (the version fence stays at its initial
// value and ShipUpdate has nothing to ship).
func NewPool(cfg PoolConfig, rep *shard.Replica) (*Pool, error) {
	if rep == nil {
		return nil, errors.New("remote: nil replica")
	}
	snap, err := snapshotSource(rep)
	if err != nil {
		return nil, err
	}
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("remote: no worker addresses")
	}
	cfg.setDefaults()
	p := &Pool{
		cfg:    cfg,
		rep:    rep,
		local:  shard.NewLocalWorker(rep),
		snapFn: snap,
	}
	for i, addr := range cfg.Addrs {
		p.members = append(p.members, &member{
			slot: i,
			addr: addr,
			rng:  rand.New(rand.NewSource(cfg.Seed + int64(i))),
		})
	}
	handshake := p.snapshot()
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.JobTimeout)
	defer cancel()
	for _, mb := range p.members {
		if err := p.admit(ctx, mb, handshake); err != nil {
			p.closeMembers()
			return nil, fmt.Errorf("remote: worker %s: %w", mb.addr, err)
		}
	}
	hbCtx, hbStop := context.WithCancel(context.Background())
	p.hbStop = hbStop
	p.hbDone = make(chan struct{})
	go p.heartbeat(hbCtx)
	return p, nil
}

// snapshotSource returns the Sync handshake builder for rep: the dense
// matrix copied at every call, or the tiered payload built once.
func snapshotSource(rep *shard.Replica) (func(version uint64) SyncJob, error) {
	tol := rep.Tol()
	if m := rep.M(); m != nil {
		return func(version uint64) SyncJob {
			n := m.N()
			flat := make([]float64, n*n)
			for i := 0; i < n; i++ {
				m.Row(i, flat[i*n:(i+1)*n])
			}
			return SyncJob{N: n, Tol: tol, Version: version, Flat: flat}
		}, nil
	}
	ts, ok := rep.StreamSource().(*tier.Space)
	if !ok {
		return nil, errors.New("remote: a streamed replica needs a tier.Space row source")
	}
	ex, tileRows, maxTiles, _ := rep.StreamExtrema()
	payload, err := encodeTiered(ts.Snapshot(), ex, tileRows, maxTiles)
	if err != nil {
		return nil, err
	}
	return func(version uint64) SyncJob {
		return SyncJob{N: ts.N(), Tol: tol, Version: version, Tiered: payload}
	}, nil
}

// admit dials mb and runs the Sync handshake; on success the member is
// live at snap's version. Caller holds no lock (construction) or mb.mu.
func (p *Pool) admit(ctx context.Context, mb *member, snap SyncJob) error {
	t, err := p.cfg.Dial(mb.addr, p.version.Load)
	if err != nil {
		return err
	}
	if p.cfg.Wrap != nil {
		t = p.cfg.Wrap(mb.slot, t)
	}
	if err := t.Sync(ctx, snap); err != nil {
		t.Close()
		return err
	}
	mb.t = t
	mb.dead = false
	mb.misses = 0
	return nil
}

// snapshot captures the session space and version as a Sync handshake.
// Callers must hold the session lock (scans: read, updates: write) so a
// dense matrix is stable while its rows are copied; tiered payloads are
// immutable and need no lock.
func (p *Pool) snapshot() SyncJob {
	return p.snapFn(p.version.Load())
}

// Stats snapshots the recovery counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Deaths:         p.deaths.Load(),
		Revivals:       p.revivals.Load(),
		Resyncs:        p.resyncs.Load(),
		Reassigned:     p.reassigned.Load(),
		LocalFallbacks: p.localFalls.Load(),
	}
}

// Workers returns one robust worker per configured address, in slot
// order — shard.New gives slot i the i-th row range.
func (p *Pool) Workers() []shard.Worker {
	ws := make([]shard.Worker, len(p.members))
	for i := range p.members {
		ws[i] = &robustWorker{p: p, slot: i}
	}
	return ws
}

// Close stops the heartbeat monitor and tears down every connection.
// Every later job fails with an error wrapping ErrClosed: a closed pool
// never redials.
func (p *Pool) Close() error {
	p.closed.Store(true)
	if p.hbStop != nil {
		p.hbStop()
		<-p.hbDone
	}
	p.closeMembers()
	return nil
}

func (p *Pool) closeMembers() {
	for _, mb := range p.members {
		mb.mu.Lock()
		if mb.t != nil {
			mb.t.Close()
			mb.t = nil
		}
		mb.mu.Unlock()
	}
}

// ShipUpdate ships one applied session mutation to every live member and
// advances the version fence. It must run under the session write lock,
// after the matrix edits are applied and before any repair fan-out: the
// shipped rows are read from the (already mutated) session space. A
// member that cannot take the batch is disconnected, not failed — its
// replica is now behind the fence, and the next job on it triggers a
// Sync-based revival (or reassignment if it stays down).
func (p *Pool) ShipUpdate(dirty []int, rowsOnly bool) {
	m := p.rep.M()
	if m == nil {
		return // streamed (tiered) sessions are immutable; nothing is dirty
	}
	base := p.version.Load()
	next := base + 1
	n := m.N()
	job := MutateJob{BaseVersion: base, Version: next, Dirty: dirty, RowsOnly: rowsOnly}
	for _, i := range dirty {
		row := make([]float64, n)
		m.Row(i, row)
		job.Rows = append(job.Rows, RowEdit{Index: i, Vals: row})
	}
	if !rowsOnly {
		for _, j := range dirty {
			col := make([]float64, n)
			for i := 0; i < n; i++ {
				col[i] = m.F(i, j)
			}
			job.Cols = append(job.Cols, RowEdit{Index: j, Vals: col})
		}
	}
	p.version.Store(next)
	for _, mb := range p.members {
		mb.mu.Lock()
		if mb.t != nil {
			ctx, cancel := context.WithTimeout(context.Background(), p.cfg.JobTimeout)
			if err := mb.t.Mutate(ctx, job); err != nil {
				// Behind the fence (or gone): drop the conn; the next job
				// revives it with a full Sync at the new version.
				p.cfg.logf("remote: worker %s missed mutation batch v%d: %v", mb.addr, next, err)
				mb.t.Close()
				mb.t = nil
			}
			cancel()
		}
		mb.mu.Unlock()
	}
}

// heartbeat pings idle members every PingInterval. It only ever TryLocks:
// a member busy with a job is already being health-checked by that job's
// deadline, and a snapshot-free probe is all that is safe off the session
// lock. A member that misses DeadAfterMisses consecutive pings is
// declared dead; revival is in-band (the next job Syncs it) because only
// job execution runs under the session lock a snapshot read requires.
func (p *Pool) heartbeat(ctx context.Context) {
	defer close(p.hbDone)
	iv := p.cfg.PingInterval
	if iv < 0 {
		return
	}
	tick := time.NewTicker(iv)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for _, mb := range p.members {
			if !mb.mu.TryLock() {
				continue // busy with a job: its deadline covers health
			}
			if mb.t == nil || mb.dead {
				mb.mu.Unlock()
				continue
			}
			pctx, cancel := context.WithTimeout(ctx, p.cfg.PingTimeout)
			_, err := mb.t.Ping(pctx)
			cancel()
			if err != nil && ctx.Err() == nil {
				mb.misses++
				p.cfg.logf("remote: worker %s missed heartbeat %d/%d: %v", mb.addr, mb.misses, p.cfg.DeadAfterMisses, err)
				if mb.misses >= p.cfg.DeadAfterMisses {
					p.declareDeadLocked(mb, err)
				}
			} else {
				mb.misses = 0
			}
			mb.mu.Unlock()
		}
	}
}

// declareDeadLocked marks mb dead and drops its connection. Caller holds
// mb.mu.
func (p *Pool) declareDeadLocked(mb *member, cause error) {
	mb.dead = true
	mb.misses = 0
	if mb.t != nil {
		mb.t.Close()
		mb.t = nil
	}
	p.deaths.Add(1)
	p.cfg.logf("remote: worker %s declared dead: %v", mb.addr, cause)
}

// backoff sleeps the capped exponential delay for attempt (0-based) plus
// per-member jitter, or returns early when ctx is done. Caller holds
// mb.mu (the rng is guarded by it).
func (p *Pool) backoff(ctx context.Context, mb *member, attempt int) {
	d := p.cfg.BackoffBase << attempt
	if max := p.cfg.BackoffMax; d > max || d <= 0 {
		d = max
	}
	d += time.Duration(mb.rng.Int63n(int64(d) + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// tryMember runs one job on one member, retrying transient failures with
// backoff, curing stale-version answers with a Sync, and reviving a dead
// or disconnected member with a redial + Sync. It returns errMemberDead
// once the attempt budget is spent (declaring the member dead as a side
// effect), or ctx.Err() when the caller's context ends.
func (p *Pool) tryMember(ctx context.Context, mb *member, call func(ctx context.Context, w shard.Worker) error) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	wasDead := mb.dead
	var lastErr error
	for attempt := 0; attempt < p.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			p.backoff(ctx, mb, attempt-1)
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if mb.t == nil {
			if p.closed.Load() {
				return errPoolClosed
			}
			actx, cancel := context.WithTimeout(ctx, p.cfg.JobTimeout)
			err := p.admit(actx, mb, p.snapshot())
			cancel()
			if err != nil {
				lastErr = err
				continue
			}
			p.resyncs.Add(1)
			if wasDead {
				p.revivals.Add(1)
				p.cfg.logf("remote: worker %s re-admitted at v%d", mb.addr, p.version.Load())
				wasDead = false
			}
		}
		jctx, cancel := context.WithTimeout(ctx, p.cfg.JobTimeout)
		err := call(jctx, mb.t)
		cancel()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = err
		if NeedsSync(err) {
			// The worker is alive but behind the fence: one Sync cures it.
			sctx, scancel := context.WithTimeout(ctx, p.cfg.JobTimeout)
			serr := mb.t.Sync(sctx, p.snapshot())
			scancel()
			if serr == nil {
				p.resyncs.Add(1)
				p.cfg.logf("remote: worker %s re-synced to v%d", mb.addr, p.version.Load())
				continue
			}
			lastErr = serr
		}
		// Transport-level failure: the stream may be poisoned; drop the
		// connection so the next attempt redials.
		mb.t.Close()
		mb.t = nil
	}
	p.declareDeadLocked(mb, lastErr)
	return fmt.Errorf("%w (%s): %v", errMemberDead, mb.addr, lastErr)
}

// do routes one job: the slot's own member first, then surviving siblings
// in ring order (reassignment), then the coordinator's local replica
// (graceful degradation). Bit-identity holds regardless of who computes —
// the job carries its row range and every replica holds the same space.
func (p *Pool) do(ctx context.Context, slot int, call func(ctx context.Context, w shard.Worker) error) error {
	k := len(p.members)
	for off := 0; off < k; off++ {
		if p.closed.Load() {
			return errPoolClosed
		}
		mb := p.members[(slot+off)%k]
		err := p.tryMember(ctx, mb, call)
		if err == nil {
			if off > 0 {
				p.reassigned.Add(1)
				p.cfg.logf("remote: slot %d reassigned to worker %s", slot, mb.addr)
			}
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if p.closed.Load() {
		return errPoolClosed
	}
	p.localFalls.Add(1)
	p.cfg.logf("remote: slot %d computed locally (no remote worker available)", slot)
	return call(ctx, p.local)
}

// robustWorker is the shard.Worker the coordinator drives for one slot.
type robustWorker struct {
	p    *Pool
	slot int
}

func (w *robustWorker) Max(ctx context.Context, job shard.ScanJob) (shard.MaxResult, error) {
	return robust(ctx, w, func(ctx context.Context, wk shard.Worker) (shard.MaxResult, error) { return wk.Max(ctx, job) })
}

func (w *robustWorker) Band(ctx context.Context, job shard.BandJob) (shard.BandResult, error) {
	return robust(ctx, w, func(ctx context.Context, wk shard.Worker) (shard.BandResult, error) { return wk.Band(ctx, job) })
}

func (w *robustWorker) Repair(ctx context.Context, job shard.RepairJob) (shard.BandResult, error) {
	return robust(ctx, w, func(ctx context.Context, wk shard.Worker) (shard.BandResult, error) { return wk.Repair(ctx, job) })
}

// robust runs one job through the pool's recovery ladder for w's slot.
func robust[T any](ctx context.Context, w *robustWorker, call func(ctx context.Context, wk shard.Worker) (T, error)) (T, error) {
	var res T
	err := w.p.do(ctx, w.slot, func(ctx context.Context, wk shard.Worker) error {
		r, err := call(ctx, wk)
		if err == nil {
			res = r
		}
		return err
	})
	return res, err
}
