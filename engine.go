package decaynet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"decaynet/internal/capacity"
	"decaynet/internal/core"
	"decaynet/internal/distributed"
	"decaynet/internal/rng"
	"decaynet/internal/scenario"
	"decaynet/internal/schedule"
	"decaynet/internal/shard"
	"decaynet/internal/shard/remote"
	"decaynet/internal/sinr"
	"decaynet/internal/tier"
)

// Engine is the batch-first session object of the public API: it owns a
// dense decay space, a link set and the radio parameters, and caches every
// derived product — the metricity ζ, the induced quasi-metric's distance
// matrix, the ϕ variant, and the dense affectance matrix per power vector
// — so that capacity, scheduling and simulation stop recomputing them call
// after call.
//
// Engines are mutable sessions: Update (and the AddLinks / RemoveLinks /
// SetDecayRows / SetDecay / MoveNode conveniences) applies a batch of
// topology or decay edits under a session version counter, and every
// cached product repairs itself incrementally instead of rebuilding —
// affectance matrices patch only the rows and columns of touched links,
// the quasi-metric rematerializes only mutated rows, and ζ/ϕ re-scan only
// triplets incident to dirty rows. All methods are safe for concurrent
// use: reads proceed in parallel and serialize only against Update.
//
// The long-running entry points have context.Context-accepting forms
// (ZetaCtx, PhiCtx, AffectancesCtx, CapacityCtx, ScheduleCtx) with
// cooperative cancellation plumbed through the worker pool, so a serving
// layer can shed load; a cancelled call returns ctx.Err() promptly and
// caches nothing.
type Engine struct {
	// mu is the session lock: every reader takes it shared, Update takes
	// it exclusively. Cached-product repair therefore never races a read.
	mu      sync.RWMutex
	version uint64

	sys    *System
	matrix *core.Matrix       // the dense space sys wraps (nil for tiered sessions)
	space  core.Space         // the session space every read path consumes (== matrix unless tiered)
	tiered *tier.Space        // the tiered space of a WithTieredStorage session, else nil
	inst   *scenario.Instance // nil when built from an explicit space

	// Geometry of the session, when built from a geometric scenario or
	// space: node positions and the path-loss exponent MoveNode recomputes
	// decays with. points is engine-owned (mutated by MoveNode).
	points    []Point
	geomAlpha float64

	// analytic is the analytically known metricity (ζ = α for geometric
	// sessions), kept across moves — a node move preserves f = d^α — and
	// voided by any direct decay edit.
	analytic float64

	// dynamic marks the session as mutation-tracking: exact ζ/ϕ are then
	// computed through the incremental trackers (repairable after Update)
	// instead of the one-shot scans. Set by WithMutationTracking or by the
	// first Update.
	dynamic bool
	zt      shard.Tracker
	vt      shard.Tracker

	// be runs every exact ζ/ϕ scan and incremental repair (see backend).
	// It is nil only for an unsharded session whose ζ/ϕ are sampled
	// (WithApproxMetricity); the O(links²) affectance builds never use it.
	be *backend

	// approxSamples > 0 routes Zeta/Phi to the sampled estimators
	// (WithApproxMetricity fired: the space is at or above the size
	// threshold). targetEps > 0 additionally iterates them, doubling the
	// triplet budget until the Hoeffding half-width is at most targetEps.
	// zetaSamples records the ζ estimator's triplet count and zetaEst its
	// full concentration summary once the lazily seeded estimate has been
	// consumed.
	approxSamples int
	targetEps     float64
	zetaSamples   atomic.Int64
	zetaEst       atomic.Pointer[core.SampledEstimate]

	// φ cache: resettable (Update invalidates or repairs it), with the
	// sampled path's concentration summary alongside. Guarded by phiMu,
	// acquired after mu.
	phiMu  sync.Mutex
	phiOK  bool
	phi    float64
	phiEst *core.SampledEstimate
}

// backend is the session's exact ζ/ϕ executor: a shard coordinator whose
// workers are one in-process worker on the shared pool (an unsharded
// session), k in-process shard workers (WithShards), or the robust
// workers of a remote pool (WithRemoteWorkers). Every route returns the
// per-pair oracles' bits.
type backend struct {
	*shard.Coordinator
	shards int          // WithShards or WithRemoteWorkers slots; 0 unsharded
	pool   *remote.Pool // WithRemoteWorkers only
}

// newBackend builds the backend over the session space. The replica
// adopts a dense matrix in place; a tiered space gets a streamed replica,
// whose O(n) scan extrema are derived here.
func newBackend(space core.Space, ec *engineConfig) (*backend, error) {
	rep, err := shard.NewReplica(context.Background(), space, 1e-12, 0, 0)
	if err != nil {
		return nil, err
	}
	be := &backend{shards: ec.shards}
	var workers []shard.Worker
	for range ec.shards {
		workers = append(workers, shard.NewLocalWorker(rep))
	}
	if len(ec.remoteAddrs) > 0 {
		cfg := remote.PoolConfig{Addrs: ec.remoteAddrs}
		if ec.remoteTweak != nil {
			ec.remoteTweak(&cfg)
		}
		if be.pool, err = remote.NewPool(cfg, rep); err != nil {
			return nil, err
		}
		be.shards, workers = len(ec.remoteAddrs), be.pool.Workers()
	}
	be.Coordinator, _ = shard.New(rep, workers) // rep is non-nil
	return be, nil
}

// shipUpdate ships an applied mutation to the remote replicas, if any,
// before repairs fan out: repairs are version-fenced scans, and a worker
// still behind the fence would answer stale.
func (b *backend) shipUpdate(dirty []int, rowsOnly bool) {
	if b != nil && b.pool != nil {
		b.pool.ShipUpdate(dirty, rowsOnly)
	}
}

// invalidate drops the replica's scan state of p after the session
// invalidated p instead of repairing it.
func (b *backend) invalidate(p shard.Param) {
	if b != nil {
		b.Replica().Invalidate(p)
	}
}

// close releases the remote pool, if any. Later jobs fail with an error
// wrapping remote.ErrClosed.
func (b *backend) close() error {
	if b == nil || b.pool == nil {
		return nil
	}
	return b.pool.Close()
}

// approxMetricitySeed seeds the sampled metricity estimators an Engine
// runs under WithApproxMetricity, fixed so that equal engines report equal
// estimates across processes.
const approxMetricitySeed = 0xdeca95eed

// Affectances is the dense pairwise affectance cache (see Engine.Affectances).
type Affectances = sinr.Affectances

// engineConfig accumulates functional options.
type engineConfig struct {
	space           Space
	links           []Link
	pairLinks       bool
	knownZeta       float64
	beta            float64
	noise           float64
	scenarioName    string
	scenarioCfg     ScenarioConfig
	approxThreshold int
	approxSamples   int
	targetEps       float64
	tracking        bool
	shards          int
	remoteAddrs     []string
	remoteTweak     func(*remote.PoolConfig)
	tierOpts        *tier.Options
}

// EngineOption configures NewEngine.
type EngineOption func(*engineConfig) error

// UsingScenario builds the engine's space and links from the named
// registered scenario (see RegisterScenario / ScenarioNames).
func UsingScenario(name string, cfg ScenarioConfig) EngineOption {
	return func(ec *engineConfig) error {
		ec.scenarioName = name
		ec.scenarioCfg = cfg
		return nil
	}
}

// UsingSpace supplies an explicit decay space. A *Matrix is adopted
// without copying: the engine then owns its storage, and Update mutates it
// in place.
func UsingSpace(space Space) EngineOption {
	return func(ec *engineConfig) error {
		if space == nil {
			return errors.New("decaynet: UsingSpace(nil)")
		}
		ec.space = space
		return nil
	}
}

// UsingLinks supplies an explicit link set.
func UsingLinks(links ...Link) EngineOption {
	return func(ec *engineConfig) error {
		ec.links = append([]Link(nil), links...)
		return nil
	}
}

// PairedLinks derives the convention link set {2i → 2i+1} from the space's
// nodes (the layout scenegen and the JSON tools use).
func PairedLinks() EngineOption {
	return func(ec *engineConfig) error {
		ec.pairLinks = true
		return nil
	}
}

// Beta sets the SINR threshold β (default 1).
func Beta(b float64) EngineOption {
	return func(ec *engineConfig) error {
		ec.beta = b
		return nil
	}
}

// Noise sets the ambient noise N (default 0).
func Noise(n float64) EngineOption {
	return func(ec *engineConfig) error {
		ec.noise = n
		return nil
	}
}

// KnownZeta supplies an analytically known metricity (ζ = α for geometric
// spaces), skipping the O(n³) computation.
func KnownZeta(z float64) EngineOption {
	return func(ec *engineConfig) error {
		ec.knownZeta = z
		return nil
	}
}

// WithApproxMetricity routes Engine.Zeta and Engine.Phi to the batched
// sampled estimators (core.ZetaSampledBatch / core.VarphiSampledBatch,
// drawing `samples` random triplets in whole-row strata on the worker
// pool) whenever the space has at least threshold nodes. Below the
// threshold — and by default — the exact O(n³) scans run; the sampled
// values are lower bounds on the exact parameters, deterministic for a
// given engine. The induced quasi-metric and every ζ-consuming algorithm
// then use the estimate. KnownZeta still wins for ζ when supplied.
func WithApproxMetricity(threshold, samples int) EngineOption {
	return func(ec *engineConfig) error {
		if threshold <= 0 || samples <= 0 {
			return fmt.Errorf("decaynet: WithApproxMetricity(%d, %d): threshold and samples must be positive", threshold, samples)
		}
		ec.approxThreshold = threshold
		ec.approxSamples = samples
		return nil
	}
}

// WithTargetPrecision drives the sampled ζ/ϕ estimators by precision
// instead of a fixed budget: when WithApproxMetricity routes to them, the
// triplet budget doubles (from the configured `samples`) until the
// estimate's Hoeffding 95% half-width is at most eps, and ZetaEstimate /
// PhiEstimate report the half-width actually achieved. The budget is
// internally capped, so a half-width the instance cannot reach terminates
// with a best-effort estimate rather than looping. On engines running the
// exact scans the option has no effect.
func WithTargetPrecision(eps float64) EngineOption {
	return func(ec *engineConfig) error {
		if eps <= 0 {
			return fmt.Errorf("decaynet: WithTargetPrecision(%v): eps must be positive", eps)
		}
		ec.targetEps = eps
		return nil
	}
}

// WithShards routes the engine's heavy reductions — the exact ζ/ϕ triplet
// scans and the incremental repairs after Update — through a row-range
// sharding coordinator with k workers (internal/shard). Results are
// bit-identical to the unsharded engine for every cached product:
// per-shard maxima merge with max and per-shard band collections seed the
// same trackers. Affectance matrices are built in process on the shared
// worker pool, as in an unsharded session: the O(links²) build is cheaper
// than shipping its O(links²) output. In-process each worker is one goroutine
// scanning its row range serially, so k is the session's scan parallelism
// (the unsharded engine instead uses the shared worker pool); the worker
// boundary is message-shaped, sized for the cross-machine transport the
// runtime is the substrate for. Dirty rows map to their owning shards
// during repairs, and every context-accepting entry point propagates
// cancellation to all k workers. The sampled estimators
// (WithApproxMetricity) bypass the coordinator.
func WithShards(k int) EngineOption {
	return func(ec *engineConfig) error {
		if k < 1 {
			return fmt.Errorf("decaynet: WithShards(%d): need at least one shard", k)
		}
		ec.shards = k
		return nil
	}
}

// WithRemoteWorkers fans the engine's ζ/ϕ triplet scans and Update repairs
// out across remote worker processes (cmd/decaynet-worker daemons), one
// shard slot per address, over the length-prefixed JSON-over-TCP
// transport in internal/shard/remote; affectance matrices are built on the
// coordinator (see WithShards). Construction dials and Syncs every worker
// strictly — a full-space snapshot brings each replica to the session's
// version — and every applied Update ships its mutation batch to all
// workers, fenced on the replica version, before repairs fan out. With
// WithTieredStorage the handshake ships the tiered snapshot instead of a
// dense matrix (O(K·n) on the wire for a model tail) and workers scan
// reconstructed streamed replicas; tiered sessions never mutate, so the
// version fence stays at its construction value.
//
// The pool is fault-tolerant after construction: per-job deadlines and
// heartbeats detect dead or slow workers, transient failures retry with
// capped exponential backoff plus jitter, a dead worker's row range is
// reassigned to survivors (or computed on the coordinator's own replica
// as graceful degradation), and a rejoining worker is re-admitted only
// after a fresh Sync catches it up past the fence. Results remain
// bit-identical to the unsharded engine under every failure mode, because
// all replicas hold the same space and partial results merge by row
// range, not arrival order. Close the engine to tear the pool down.
// Mutually exclusive with WithShards (the in-process variant).
func WithRemoteWorkers(addrs ...string) EngineOption {
	return func(ec *engineConfig) error {
		if len(addrs) == 0 {
			return errors.New("decaynet: WithRemoteWorkers needs at least one address")
		}
		ec.remoteAddrs = append([]string(nil), addrs...)
		return nil
	}
}

// withRemoteTweak adjusts the remote pool's configuration (timeouts,
// backoff, fault injection) before it dials. Test seam; exported to the
// package's tests via export_test.go.
func withRemoteTweak(tweak func(*remote.PoolConfig)) EngineOption {
	return func(ec *engineConfig) error {
		ec.remoteTweak = tweak
		return nil
	}
}

// WithTieredStorage replaces the engine's dense float64 matrix with tiered
// row storage (internal/tier): an exact near-field of the K strongest
// (smallest-decay) neighbors per row over a float32 or fitted path-loss
// model far field. Every cached product — ζ/ϕ (exact, sampled, or sharded),
// affectance, capacity, scheduling, simulation — runs unchanged against the
// tiered space through the ordinary Space/RowSpace contracts; what changes
// is the memory wall: a TierConfig{Tail: TailModel} session holds O(n·K)
// instead of n²·8 bytes, which is what makes n ≥ 16k sessions (the "urban"
// scenario family) fit in ordinary heaps. TierAccounting reports the bytes
// actually held per tier and the tail model's fit-error summary.
//
// Accuracy contract: near-field entries are served bit-identically to the
// source space; a float32 tail perturbs each far entry by a relative error
// ≤ tier.Float32RelTol (≈ 6e-8), with derived ζ/ϕ/affectance error budgets
// documented (and property-tested) in internal/tier; a model tail replaces
// far entries with the fitted decay(d) = C·dᵞ, whose residual the
// accounting reports in dB. An analytically known ζ of the source space
// (KnownZeta, or a scenario's ζ = α) is therefore discarded: the tiered
// session computes its own metricity.
//
// Tiered sessions are immutable: Update and every mutation convenience
// return ErrTieredImmutable. Exact ζ/ϕ run the out-of-core streamed scans
// (core.StreamScan), paging row tiles through a bounded cache instead of
// materializing an n×n matrix, on the shared pool or on the shard workers
// of WithShards. They compose with WithRemoteWorkers — the Sync handshake
// ships the tiered snapshot (CSR near field + tail + scan extrema, O(K·n)
// on the wire for a model tail) and remote workers scan a reconstructed
// streamed replica bit-identically to the coordinator — and with
// WithApproxMetricity, the intended ζ/ϕ route at n ≥ 16k, which builds
// no streamed replica. Mutually exclusive with WithMutationTracking.
//
// For TailModel the node geometry is taken from opts.Points, or, when
// empty, from the scenario instance the engine was built from.
func WithTieredStorage(opts TierOptions) EngineOption {
	return func(ec *engineConfig) error {
		if err := opts.Config.Valid(); err != nil {
			return err
		}
		o := opts
		o.Points = append([]Point(nil), opts.Points...)
		ec.tierOpts = &o
		return nil
	}
}

// WithMutationTracking pre-arms the incremental session machinery: exact
// ζ/ϕ computations build their per-row trackers immediately, so even the
// first Update repairs instead of invalidating. Without the option the
// first Update enables tracking implicitly, at the cost of one full
// recomputation of whatever exact products were already cached.
func WithMutationTracking() EngineOption {
	return func(ec *engineConfig) error {
		ec.tracking = true
		return nil
	}
}

// NewEngine builds an Engine from functional options. The space comes from
// UsingScenario or UsingSpace (exactly one required); links come from the
// scenario, UsingLinks, or PairedLinks. The space is materialized into a
// dense matrix up front so every downstream consumer takes the batch fast
// path — unless WithTieredStorage replaces the dense matrix with tiered row
// storage, the memory-wall escape for n ≥ 16k sessions.
func NewEngine(opts ...EngineOption) (*Engine, error) {
	var ec engineConfig
	ec.beta = 1
	for _, o := range opts {
		if err := o(&ec); err != nil {
			return nil, err
		}
	}
	var inst *scenario.Instance
	if ec.scenarioName != "" {
		if ec.space != nil {
			return nil, errors.New("decaynet: UsingScenario and UsingSpace are mutually exclusive")
		}
		var err error
		inst, err = scenario.Build(ec.scenarioName, ec.scenarioCfg)
		if err != nil {
			return nil, err
		}
		ec.space = inst.Space
		if len(ec.links) == 0 && !ec.pairLinks {
			ec.links = inst.Links
		}
		if ec.knownZeta == 0 {
			ec.knownZeta = inst.KnownZeta
		}
	}
	if ec.space == nil {
		return nil, errors.New("decaynet: an Engine needs UsingScenario or UsingSpace")
	}
	e := &Engine{
		inst:      inst,
		analytic:  ec.knownZeta,
		dynamic:   ec.tracking,
		targetEps: ec.targetEps,
	}
	if ec.tierOpts != nil {
		if ec.tracking {
			return nil, errors.New("decaynet: WithTieredStorage and WithMutationTracking are mutually exclusive (tiered sessions are immutable)")
		}
		topts := *ec.tierOpts
		if topts.Tail == tier.TailModel && len(topts.Points) == 0 && inst != nil {
			topts.Points = inst.Points
		}
		ts, err := tier.Build(ec.space, topts)
		if err != nil {
			return nil, err
		}
		e.tiered = ts
		e.space = ts
		// Tiering perturbs far-field decays, so an analytic ζ of the
		// source space no longer holds exactly; the session computes its
		// own metricity.
		e.analytic = 0
		ec.knownZeta = 0
	} else {
		// The space is materialized into a dense matrix up front so every
		// downstream consumer takes the batch fast path.
		dense := core.Dense(ec.space)
		e.matrix = dense
		e.space = dense
	}
	if ec.pairLinks {
		if len(ec.links) > 0 {
			return nil, errors.New("decaynet: PairedLinks conflicts with explicit links")
		}
		ec.links = scenario.PairedLinks(e.space.N())
	}
	// Capture the session geometry MoveNode needs: positions from the
	// scenario instance (or the space itself) and the path-loss exponent
	// when the space is geometric.
	if gs, ok := ec.space.(*core.GeometricSpace); ok {
		e.geomAlpha = gs.Alpha()
		if inst == nil || len(inst.Points) == 0 {
			e.points = make([]Point, gs.N())
			for i := range e.points {
				e.points[i] = gs.Point(i)
			}
		}
	}
	if inst != nil && len(inst.Points) > 0 {
		e.points = append([]Point(nil), inst.Points...)
	}
	approx := ec.approxThreshold > 0 && e.space.N() >= ec.approxThreshold
	if approx {
		e.approxSamples = ec.approxSamples
	}
	// The engine always owns ζ production (sampled / tracked / exact,
	// see computeZeta): installing the lazy source up front means an
	// invalidation after any mutation re-routes through it, even when the
	// session started from an analytically known ζ.
	sysOpts := []Option{WithBeta(ec.beta), WithNoise(ec.noise), sinr.WithZetaCtxFunc(e.computeZeta)}
	if ec.shards > 0 && len(ec.remoteAddrs) > 0 {
		return nil, errors.New("decaynet: WithShards and WithRemoteWorkers are mutually exclusive")
	}
	if !approx || ec.shards > 0 || len(ec.remoteAddrs) > 0 {
		be, err := newBackend(e.space, &ec)
		if err != nil {
			return nil, err
		}
		e.be = be
	}
	if ec.knownZeta > 0 {
		sysOpts = append(sysOpts, WithZeta(ec.knownZeta))
	}
	sys, err := NewSystem(e.space, ec.links, sysOpts...)
	if err != nil {
		e.be.close()
		return nil, err
	}
	e.sys = sys
	return e, nil
}

// computeZeta is the engine's lazy metricity source, consulted by the
// System on the first ζ access of each (in)validation cycle: the sampled
// estimator above the approx threshold (iterated to the target precision
// when one is set), the backend otherwise (see exact). Runs with
// System.metMu held, which serializes tracker installation.
func (e *Engine) computeZeta(ctx context.Context) (float64, error) {
	if e.approxSamples == 0 {
		return e.exact(ctx, shard.Zeta, &e.zt)
	}
	var (
		est core.SampledEstimate
		err error
	)
	if e.targetEps > 0 {
		est, err = core.ZetaSampledTarget(ctx, e.space, e.approxSamples, e.targetEps, rng.New(approxMetricitySeed))
	} else {
		est, err = core.ZetaSampledEstimateCtx(ctx, e.space, e.approxSamples, rng.New(approxMetricitySeed))
	}
	if err != nil {
		return 0, err
	}
	e.zetaSamples.Store(int64(est.Evaluated))
	e.zetaEst.Store(&est)
	return est.Value, nil
}

// exact computes p on the backend: on a mutation-tracking session through
// a fresh tracker, installed in *t, and by one max scan otherwise.
func (e *Engine) exact(ctx context.Context, p shard.Param, t *shard.Tracker) (float64, error) {
	if !e.dynamic {
		return e.be.Max(ctx, p)
	}
	tr, v, err := e.be.Tracker(ctx, p)
	if err != nil {
		return 0, err
	}
	*t = tr
	return v, nil
}

// Shards returns the shard count of the session's row-range coordinator
// (WithShards or WithRemoteWorkers), or 0 for an unsharded engine.
func (e *Engine) Shards() int {
	if e.be == nil {
		return 0
	}
	return e.be.shards
}

// RemoteWorkers returns the number of remote worker slots the session
// fans out to (WithRemoteWorkers), or 0 for a local engine.
func (e *Engine) RemoteWorkers() int {
	if e.be == nil || e.be.pool == nil {
		return 0
	}
	return e.be.shards
}

// Close releases the engine's external resources — the remote worker
// connections and heartbeat monitor of a WithRemoteWorkers session. It is
// a no-op for local engines. The engine must not be used after Close: on
// a remote session every later exact ζ/ϕ read or repair fails with an
// error wrapping remote.ErrClosed instead of redialing the workers.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.be.close()
}

// Tiered reports whether the session runs on tiered row storage
// (WithTieredStorage) instead of a dense float64 matrix.
func (e *Engine) Tiered() bool { return e.tiered != nil }

// TierAccounting returns the tiered session's per-tier storage accounting —
// bytes held by the exact near field, the far-field tail and the geometry,
// against the dense baseline — plus the tail model and its fit-error report
// when the tail is modeled. ok is false for dense sessions.
func (e *Engine) TierAccounting() (TierAccounting, bool) {
	if e.tiered == nil {
		return TierAccounting{}, false
	}
	return e.tiered.Accounting(), true
}

// System returns the underlying sinr System (shares all caches). Direct
// System use is not serialized against Update — hold off mutating the
// engine while working through it.
func (e *Engine) System() *System { return e.sys }

// Space returns the engine's decay space — the live session matrix that
// Update mutates in place, or the immutable tiered space of a
// WithTieredStorage session.
func (e *Engine) Space() Space { return e.sys.Space() }

// Links returns a copy of the link set.
func (e *Engine) Links() []Link {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.sys.Links()
}

// Len returns the number of links.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.sys.Len()
}

// N returns the number of nodes.
func (e *Engine) N() int { return e.space.N() }

// Version returns the session version: 0 at construction, incremented by
// every applied Update. Two reads returning the same version bracket an
// unmutated session.
func (e *Engine) Version() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.version
}

// Scenario returns the name of the scenario that built this engine, or ""
// for explicit spaces.
func (e *Engine) Scenario() string {
	if e.inst == nil {
		return ""
	}
	return e.inst.Scenario
}

// Points returns a copy of the current node positions for sessions with
// plane geometry (nil otherwise). MoveNode updates them.
func (e *Engine) Points() []Point {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.points == nil {
		return nil
	}
	return append([]Point(nil), e.points...)
}

// Zeta returns the metricity ζ of the space, computed once and cached —
// the exact scan by default, the batched sampled estimate when
// WithApproxMetricity fired (see MetricityApproximate). After an Update
// the cached value has been repaired (or invalidated and lazily
// recomputed) to match the mutated space.
func (e *Engine) Zeta() float64 {
	z, _ := e.ZetaCtx(context.Background())
	return z
}

// ZetaCtx is Zeta with cooperative cancellation: a cold call pays the scan
// (or estimate) under ctx and returns ctx.Err() when cancelled, caching
// nothing; a warm call returns the cache immediately.
func (e *Engine) ZetaCtx(ctx context.Context) (float64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.sys.ZetaCtx(ctx)
}

// Phi returns φ = lg ϕ, computed once and cached; sampled when
// WithApproxMetricity fired, exact otherwise. Like Zeta it is repaired or
// recomputed after mutations.
func (e *Engine) Phi() float64 {
	phi, _ := e.PhiCtx(context.Background())
	return phi
}

// PhiCtx is Phi with cooperative cancellation (see ZetaCtx).
func (e *Engine) PhiCtx(ctx context.Context) (float64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.phiMu.Lock()
	defer e.phiMu.Unlock()
	if e.phiOK {
		return e.phi, nil
	}
	var (
		vphi float64
		err  error
	)
	if e.approxSamples == 0 {
		if vphi, err = e.exact(ctx, shard.Varphi, &e.vt); err != nil {
			return 0, err
		}
	} else {
		var est core.SampledEstimate
		if e.targetEps > 0 {
			est, err = core.VarphiSampledTarget(ctx, e.space, e.approxSamples, e.targetEps, rng.New(approxMetricitySeed+1))
		} else {
			est, err = core.VarphiSampledEstimateCtx(ctx, e.space, e.approxSamples, rng.New(approxMetricitySeed+1))
		}
		if err != nil {
			return 0, err
		}
		e.phiEst = &est
		vphi = est.Value
	}
	e.phi = math.Log2(vphi)
	e.phiOK = true
	return e.phi, nil
}

// MetricityApproximate reports whether this engine's Zeta and Phi come
// from the sampled estimators — WithApproxMetricity was set and the space
// met its size threshold — together with the number of triplets the ζ
// estimate drew (0 until Zeta is first consumed, and always 0 when ζ came
// from KnownZeta or the scenario).
func (e *Engine) MetricityApproximate() (bool, int) {
	return e.approxSamples > 0, int(e.zetaSamples.Load())
}

// ZetaEstimate returns the sampled ζ estimate's concentration summary
// (point estimate, strata, Hoeffding half-width over stratum maxima). The
// bool is false until the engine has actually sampled ζ — i.e. before the
// first Zeta call, or always when ζ is exact or scenario-known.
func (e *Engine) ZetaEstimate() (SampledEstimate, bool) {
	if p := e.zetaEst.Load(); p != nil {
		return *p, true
	}
	return SampledEstimate{}, false
}

// PhiEstimate is the ϕ analogue of ZetaEstimate: the sampled ϕ estimate's
// concentration summary, available once Phi has been consumed on an
// engine routed through the sampled estimators, and false otherwise (the
// exact and tracker paths carry no sampling uncertainty).
func (e *Engine) PhiEstimate() (SampledEstimate, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.phiMu.Lock()
	defer e.phiMu.Unlock()
	if e.phiOK && e.phiEst != nil {
		return *e.phiEst, true
	}
	return SampledEstimate{}, false
}

// QuasiMetric returns the cached induced quasi-metric d = f^(1/ζ). The
// returned structure is a snapshot: its distance matrix is materialized
// before it leaves the session lock, and an Update replaces (never
// mutates) it. The exception is spaces beyond the dense-materialization
// bound (8192 nodes), whose quasi-metrics compute distances per call from
// the live decay matrix — holding one across an Update then reads current
// decays at the snapshot's exponent.
func (e *Engine) QuasiMetric() *QuasiMetric {
	e.mu.RLock()
	defer e.mu.RUnlock()
	qm := e.sys.QuasiMetric()
	if qm != nil {
		qm.Freeze()
	}
	return qm
}

// Affectances returns the cached dense affectance matrix for p, computing
// it (in parallel, from the link×link decays) only when p changes. The
// returned matrix is a snapshot: an Update patches a fresh copy into the
// cache instead of touching handed-out matrices. A p that fails
// Power.Validate against the current links yields nil; AffectancesCtx
// reports why.
func (e *Engine) Affectances(p Power) *Affectances {
	a, _ := e.AffectancesCtx(context.Background(), p)
	return a
}

// AffectancesCtx is Affectances with cooperative cancellation of the
// O(links²) build on a cache miss.
func (e *Engine) AffectancesCtx(ctx context.Context, p Power) (*Affectances, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := e.checkPower(p); err != nil {
		return nil, err
	}
	return e.sys.AffectancesCtx(ctx, p)
}

// UniformPower, LinearPower and MeanPower build the standard monotone
// assignments for this engine's links.
func (e *Engine) UniformPower(p float64) Power {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return sinr.UniformPower(e.sys, p)
}

// LinearPower assigns P_v = scale · f_vv.
func (e *Engine) LinearPower(scale float64) Power {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return sinr.LinearPower(e.sys, scale)
}

// MeanPower assigns P_v = scale · sqrt(f_vv).
func (e *Engine) MeanPower(scale float64) Power {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return sinr.MeanPower(e.sys, scale)
}

// AllLinks returns [0, Len()).
func (e *Engine) AllLinks() []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return capacity.AllLinks(e.sys)
}

// checkPower validates p against the current link set (sinr.Power.Validate).
// Callers hold mu, so the check and the computation it guards see the same
// links: a vector built before an Update changed the link count fails with
// an error wrapping ErrPowerMismatch instead of indexing out of range.
func (e *Engine) checkPower(p Power) error {
	return p.Validate(e.sys)
}

// orAll substitutes the full link set for nil. Callers hold mu.
func (e *Engine) orAll(links []int) []int {
	if links == nil {
		return capacity.AllLinks(e.sys)
	}
	return links
}

// Capacity runs the paper's Algorithm 1 (Theorem 5) on the given links
// (nil = all) under power p. Every power-taking method first checks p
// with Power.Validate against the current links: the error-returning
// forms return its error (wrapping ErrPowerMismatch for a vector built
// for another link count), the others return their zero value.
func (e *Engine) Capacity(p Power, links []int) []int {
	out, _ := e.CapacityCtx(context.Background(), p, links)
	return out
}

// CapacityCtx is Capacity with cooperative cancellation: the expensive
// session inputs (ζ on a cold session, the dense affectance matrix) are
// computed under ctx and the greedy pass polls it, so a cancelled call
// returns ctx.Err() promptly.
func (e *Engine) CapacityCtx(ctx context.Context, p Power, links []int) ([]int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := e.checkPower(p); err != nil {
		return nil, err
	}
	return capacity.Algorithm1Ctx(ctx, e.sys, p, e.orAll(links))
}

// GreedyCapacity runs the general-metric baseline.
func (e *Engine) GreedyCapacity(p Power, links []int) []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.checkPower(p) != nil {
		return nil
	}
	return capacity.GreedyGeneral(e.sys, p, e.orAll(links))
}

// ExactCapacity runs the exact branch-and-bound optimum (small instances).
func (e *Engine) ExactCapacity(p Power, links []int) []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.checkPower(p) != nil {
		return nil
	}
	return capacity.Exact(e.sys, p, e.orAll(links))
}

// FirstFitCapacity runs the naive first-fit baseline.
func (e *Engine) FirstFitCapacity(p Power, links []int) []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.checkPower(p) != nil {
		return nil
	}
	return capacity.FirstFit(e.sys, p, e.orAll(links))
}

// Feasible reports whether the set meets the SINR threshold simultaneously.
func (e *Engine) Feasible(p Power, set []int) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.checkPower(p) != nil {
		return false
	}
	return sinr.IsFeasible(e.sys, p, set)
}

// Schedule partitions the links (nil = all) into feasible slots by
// repeated extraction with Algorithm 1.
func (e *Engine) Schedule(p Power, links []int) ([][]int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := e.checkPower(p); err != nil {
		return nil, err
	}
	return schedule.ByCapacity(e.sys, p, e.orAll(links), capacity.Algorithm1)
}

// ScheduleCtx is Schedule with cooperative cancellation: ζ and the
// affectance matrix are forced under ctx up front and the slot loop polls
// it between extractions.
func (e *Engine) ScheduleCtx(ctx context.Context, p Power, links []int) ([][]int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := e.checkPower(p); err != nil {
		return nil, err
	}
	return schedule.ByCapacityCtx(ctx, e.sys, p, e.orAll(links), capacity.Algorithm1)
}

// ScheduleWith is Schedule with an explicit capacity routine.
func (e *Engine) ScheduleWith(p Power, links []int, cap schedule.CapacityFunc) ([][]int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := e.checkPower(p); err != nil {
		return nil, err
	}
	return schedule.ByCapacity(e.sys, p, e.orAll(links), cap)
}

// ScheduleFirstFit builds a first-fit schedule.
func (e *Engine) ScheduleFirstFit(p Power, links []int) ([][]int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := e.checkPower(p); err != nil {
		return nil, err
	}
	return schedule.FirstFit(e.sys, p, e.orAll(links))
}

// ValidateSchedule checks a schedule's feasibility and coverage of links
// (nil = all).
func (e *Engine) ValidateSchedule(p Power, links []int, slots [][]int) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := e.checkPower(p); err != nil {
		return err
	}
	return schedule.Validate(e.sys, p, e.orAll(links), slots)
}

// Sim builds the slotted distributed simulator over the engine's space,
// inheriting the engine's noise and β, with the given uniform node power.
func (e *Engine) Sim(power float64) (*Sim, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return distributed.NewSim(e.sys.Space(), distributed.Params{
		Power: power,
		Noise: e.sys.Noise(),
		Beta:  e.sys.Beta(),
	})
}
