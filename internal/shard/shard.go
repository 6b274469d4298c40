// Package shard is the row-range sharding runtime behind the scaled
// metricity paths: a Coordinator partitions the row index space of a dense
// decay space into K contiguous row-range shards and dispatches each
// shard's tile-grid work unit (the par.ForTiles granule: the shard's row
// band of the (x,z) tile grid) to a Worker over a message-shaped boundary,
// then merges the partial results — per-shard ζ/ϕ maxima and band
// collections into global tracker state, per-shard repair collections into
// the incremental session repairs. Affectance matrices are not sharded:
// their O(links²) build costs no more than shipping its O(links²) output,
// so sessions build them in process (sinr.ComputeAffectancesCtx).
//
// Every reduction the coordinator performs is associative and
// schedule-independent — maxima merge with max, bands concatenate in shard
// order — and every shard runs the same ζ and ϕ pair kernels over its row
// range as the unsharded scans (core.ZetaScanState / core.VarphiScanState,
// core.StreamScan), each of which keeps exactly the triplets above its
// bound, so the sharded results are bit-identical to the single-machine
// ones and to the per-pair oracles. That property is what lets
// decaynet.WithShards route a live session through the coordinator
// transparently and is enforced by the equivalence property tests.
//
// The Worker interface is message-shaped: every method takes and returns
// plain wire-format structs (json-tagged values, no shared pointers), so a
// cross-machine transport only needs to marshal them. The in-process
// implementation runs each worker's scan serially on the calling
// goroutine — the coordinator's fan-out is the parallelism, one goroutine
// per shard — against a shared Replica; a remote deployment would give
// each worker its own replica and ship Mutation batches to keep them
// current (the ROADMAP's replicated-session item).
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"decaynet/internal/core"
)

// Range is a half-open row range [Lo, Hi) — the unit of work ownership.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of rows in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Split partitions [0, n) into k contiguous near-equal ranges (the first
// n mod k ranges get the extra row). k is clamped to at least 1; ranges
// beyond n come out empty, so every shard index stays addressable.
func Split(n, k int) []Range {
	if k < 1 {
		k = 1
	}
	out := make([]Range, k)
	base, extra := 0, 0
	if n > 0 {
		base, extra = n/k, n%k
	}
	lo := 0
	for i := range out {
		hi := lo + base
		if i < extra {
			hi++
		}
		out[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
	return out
}

// ScanJob asks a worker for the exact maximum over the triplets whose
// first index lies in its row range, or a larger value the space attains
// (the seed its scan starts at), so the max-merge over the ranges is the
// exact full maximum. Sym certifies exact decay symmetry, allowing the
// halved scan.
type ScanJob struct {
	Rows Range `json:"rows"`
	Sym  bool  `json:"sym"`
}

// MaxResult is a shard's partial maximum.
type MaxResult struct {
	Max float64 `json:"max"`
}

// BandJob asks a worker for every triplet in its row range whose value
// exceeds Floor — the band-collection phase seeding the global trackers.
type BandJob struct {
	Rows  Range   `json:"rows"`
	Floor float64 `json:"floor"`
}

// RepairJob asks a worker to re-scan the triplets of its row range whose
// values a mutation may have changed, collecting those above Floor.
// RowsOnly mirrors the tracker contract: only the dirty rows changed, not
// their columns. The scan then skips the slices that read clean rows only
// (ζ's (x, y ∈ M, z ∉ M) and ϕ's (x, y ∉ M, z ∈ M) for clean x), exactly
// as the coordinator's band drop keeps their candidates.
type RepairJob struct {
	Rows     Range   `json:"rows"`
	Dirty    []int   `json:"dirty"`
	RowsOnly bool    `json:"rows_only"`
	Floor    float64 `json:"floor"`
}

// BandResult is a shard's collected band.
type BandResult struct {
	Band []core.BandTriplet `json:"band"`
}

// Worker is the serializable shard boundary: each method is one
// request/response exchange over plain wire-format values. In-process
// workers scan a shared Replica serially; a future transport marshals the
// same structs to remote workers holding their own replicas. All methods
// poll ctx per row and return ctx.Err() promptly when cancelled.
type Worker interface {
	ZetaMax(ctx context.Context, job ScanJob) (MaxResult, error)
	ZetaBand(ctx context.Context, job BandJob) (BandResult, error)
	ZetaRepair(ctx context.Context, job RepairJob) (BandResult, error)
	VarphiMax(ctx context.Context, job ScanJob) (MaxResult, error)
	VarphiBand(ctx context.Context, job BandJob) (BandResult, error)
	VarphiRepair(ctx context.Context, job RepairJob) (BandResult, error)
}

// ErrStreamed is returned for phases a streamed (row-paged, non-dense)
// replica cannot serve: band collection, trackers and repairs all assume a
// mutable dense matrix, and streamed sessions are immutable by contract.
var ErrStreamed = errors.New("shard: operation not supported on a streamed replica (streamed sessions are immutable)")

// Replica is the session state a worker scans: the dense decay matrix plus
// lazily built scan replicas (the ζ screen matrix G, pruning extrema).
// In-process, one Replica is shared by every worker and patched in place
// by the session's repairs (under the session write lock); cross-machine,
// each worker would hold its own and apply shipped mutation batches.
//
// A streamed replica (NewStreamedReplica) holds no dense matrix at all:
// instead of an n² matrix it carries a core.StreamScan — O(n) pruning
// extrema over a core.RowSpace — and its workers page rows through bounded
// tile caches during range scans. Max scans work identically (and
// bit-identically); trackers and repairs return ErrStreamed.
type Replica struct {
	mu  sync.Mutex
	m   *core.Matrix // nil for streamed replicas
	tol float64
	zs  *core.ZetaScanState
	vs  *core.VarphiScanState
	sym int8 // cached exact symmetry: 0 unknown, 1 yes, -1 no

	rows core.RowSpace    // streamed replicas: the row source
	ss   *core.StreamScan // streamed replicas: extrema + paging geometry
}

// NewReplica wraps a dense space for scanning at ζ bisection tolerance tol.
func NewReplica(m *core.Matrix, tol float64) *Replica {
	return &Replica{m: m, tol: tol}
}

// NewStreamedReplica wraps a row-streamed space for scanning at ζ bisection
// tolerance tol without ever materializing it densely: construction streams
// every row once to derive the O(n) pruning extrema (cancellable via ctx),
// and each range scan holds at most maxTiles·tileRows rows (non-positive
// values select the core.DefaultStream* geometry). The replica is immutable:
// scans may run concurrently, but Patch/Invalidate have nothing to refresh
// and the tracker/repair phases report ErrStreamed.
func NewStreamedReplica(ctx context.Context, rs core.RowSpace, tol float64, tileRows, maxTiles int) (*Replica, error) {
	if rs == nil {
		return nil, errors.New("shard: nil row space")
	}
	ss, err := core.NewStreamScan(ctx, rs, tol, tileRows, maxTiles)
	if err != nil {
		return nil, err
	}
	return &Replica{tol: tol, rows: rs, ss: ss}, nil
}

// NewStreamedReplicaFrom rebuilds a streamed replica from previously
// derived scan extrema instead of streaming every row — the O(n) path a
// remote worker takes when the coordinator ships a tiered snapshot with
// the extrema attached (streamed sessions are immutable, so the extrema
// stay valid for the replica's lifetime). Scans over the result are
// bit-identical to scans over a NewStreamedReplica of the same space.
func NewStreamedReplicaFrom(rs core.RowSpace, tol float64, tileRows, maxTiles int, ex core.StreamExtrema) (*Replica, error) {
	if rs == nil {
		return nil, errors.New("shard: nil row space")
	}
	ss, err := core.NewStreamScanFrom(rs, tol, tileRows, maxTiles, ex)
	if err != nil {
		return nil, err
	}
	return &Replica{tol: tol, rows: rs, ss: ss}, nil
}

// Streamed reports whether this replica pages rows instead of holding a
// dense matrix.
func (r *Replica) Streamed() bool { return r.m == nil && r.rows != nil }

// Tol returns the ζ bisection tolerance the replica scans at.
func (r *Replica) Tol() float64 { return r.tol }

// StreamSource returns a streamed replica's row source (nil for dense
// replicas) — the space a transport snapshots for remote replication.
func (r *Replica) StreamSource() core.RowSpace { return r.rows }

// StreamExtrema returns a streamed replica's scan extrema and paging
// geometry for transport (see core.StreamScan.Extrema). ok is false for
// dense replicas.
func (r *Replica) StreamExtrema() (ex core.StreamExtrema, tileRows, maxTiles int, ok bool) {
	if r.ss == nil {
		return core.StreamExtrema{}, 0, 0, false
	}
	tileRows, maxTiles = r.ss.Geometry()
	return r.ss.Extrema(), tileRows, maxTiles, true
}

// N returns the node count regardless of replica kind.
func (r *Replica) N() int {
	if r.m != nil {
		return r.m.N()
	}
	return r.rows.N()
}

// symmetric reports whether the replica's space certifies exact symmetry
// (the halved triplet scans rely on it). The O(n²) check runs once and ζ
// and ϕ share it until Patch or an invalidation says the matrix changed.
func (r *Replica) symmetric() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sym == 0 {
		r.sym = -1
		if r.m != nil && r.m.Symmetric() || r.m == nil && core.KnownSymmetric(r.rows) {
			r.sym = 1
		}
	}
	return r.sym > 0
}

// ZetaState returns the replica's ζ scan state, building it on first use
// (cancellable via ctx; a cancelled build caches nothing).
func (r *Replica) ZetaState(ctx context.Context) (*core.ZetaScanState, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.zs == nil {
		zs, err := core.NewZetaScanState(ctx, r.m, r.tol)
		if err != nil {
			return nil, err
		}
		r.zs = zs
	}
	return r.zs, nil
}

// VarphiState returns the replica's ϕ scan state, building it on first use.
func (r *Replica) VarphiState() *core.VarphiScanState {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.vs == nil {
		r.vs = core.NewVarphiScanState(r.m)
	}
	return r.vs
}

// mutated drops the cached symmetry after the session mutated the matrix.
func (r *Replica) mutated() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sym = 0
}

// InvalidateZeta drops the ζ scan state (the matrix mutated without an
// incremental repair); the next scan rebuilds it.
func (r *Replica) InvalidateZeta() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.zs, r.sym = nil, 0
}

// InvalidateVarphi drops the ϕ scan state.
func (r *Replica) InvalidateVarphi() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.vs, r.sym = nil, 0
}

// M returns the dense space the replica scans. Mutating it without a
// matching Patch leaves the scan states stale — the session layer owns
// that discipline.
func (r *Replica) M() *core.Matrix { return r.m }

// Patch refreshes whichever scan states have been built after the
// underlying matrix mutated on the dirty rows (and, unless rowsOnly,
// columns) — the replica-side half of a session repair. A remote worker
// applies a shipped mutation batch to its matrix and then calls Patch, so
// its subsequent range scans see exactly the state an in-process repair
// would. Callers serialize Patch against range scans.
func (r *Replica) Patch(dirty []int, rowsOnly bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sym = 0
	if r.zs != nil {
		r.zs.PatchRows(dirty, rowsOnly)
	}
	if r.vs != nil {
		r.vs.PatchRows(dirty, rowsOnly)
	}
}

// localWorker is the in-process Worker: serial scans over the shared
// replica. Its parallelism budget is exactly one goroutine — the
// coordinator's fan-out supplies the concurrency — so K shards scale to K
// cores without oversubscribing the pool the unsharded kernels use.
type localWorker struct {
	rep *Replica
}

func (w *localWorker) ZetaMax(ctx context.Context, job ScanJob) (MaxResult, error) {
	if w.rep.Streamed() {
		max, err := w.rep.ss.ZetaMaxRange(ctx, job.Rows.Lo, job.Rows.Hi, job.Sym)
		return MaxResult{Max: max}, err
	}
	st, err := w.rep.ZetaState(ctx)
	if err != nil {
		return MaxResult{}, err
	}
	max, err := st.MaxRange(ctx, job.Rows.Lo, job.Rows.Hi, job.Sym)
	return MaxResult{Max: max}, err
}

func (w *localWorker) ZetaBand(ctx context.Context, job BandJob) (BandResult, error) {
	if w.rep.Streamed() {
		return BandResult{}, ErrStreamed
	}
	st, err := w.rep.ZetaState(ctx)
	if err != nil {
		return BandResult{}, err
	}
	band, err := st.CollectRange(ctx, job.Rows.Lo, job.Rows.Hi, job.Floor)
	return BandResult{Band: band}, err
}

func (w *localWorker) ZetaRepair(ctx context.Context, job RepairJob) (BandResult, error) {
	if w.rep.Streamed() {
		return BandResult{}, ErrStreamed
	}
	mask := dirtyMask(w.rep.m.N(), job.Dirty)
	st, err := w.rep.ZetaState(ctx)
	if err != nil {
		return BandResult{}, err
	}
	band, err := st.RepairRange(ctx, job.Rows.Lo, job.Rows.Hi, job.Dirty, mask, job.RowsOnly, job.Floor)
	return BandResult{Band: band}, err
}

func (w *localWorker) VarphiMax(ctx context.Context, job ScanJob) (MaxResult, error) {
	if w.rep.Streamed() {
		max, err := w.rep.ss.VarphiMaxRange(ctx, job.Rows.Lo, job.Rows.Hi, job.Sym)
		return MaxResult{Max: max}, err
	}
	max, err := w.rep.VarphiState().MaxRange(ctx, job.Rows.Lo, job.Rows.Hi, job.Sym)
	return MaxResult{Max: max}, err
}

func (w *localWorker) VarphiBand(ctx context.Context, job BandJob) (BandResult, error) {
	if w.rep.Streamed() {
		return BandResult{}, ErrStreamed
	}
	band, err := w.rep.VarphiState().CollectRange(ctx, job.Rows.Lo, job.Rows.Hi, job.Floor)
	return BandResult{Band: band}, err
}

func (w *localWorker) VarphiRepair(ctx context.Context, job RepairJob) (BandResult, error) {
	if w.rep.Streamed() {
		return BandResult{}, ErrStreamed
	}
	mask := dirtyMask(w.rep.m.N(), job.Dirty)
	band, err := w.rep.VarphiState().RepairRange(ctx, job.Rows.Lo, job.Rows.Hi, job.Dirty, mask, job.RowsOnly, job.Floor)
	return BandResult{Band: band}, err
}

// NewLocalWorker wraps a replica as an in-process Worker: serial scans on
// the calling goroutine, exactly the workers New builds. Exported so
// transports can serve their replicas through the same code path (the
// remote worker daemon) and so fault-tolerant pools can fall back to
// coordinator-local computation when every remote worker is dead.
func NewLocalWorker(rep *Replica) Worker { return &localWorker{rep: rep} }

// dirtyMask builds the membership mask the repair scans consume.
func dirtyMask(n int, dirty []int) []bool {
	mask := make([]bool, n)
	for _, r := range dirty {
		if r >= 0 && r < n {
			mask[r] = true
		}
	}
	return mask
}

// Coordinator owns a row-range partition of a decay space and the shard
// workers serving it. It is safe for concurrent use by readers; mutations
// to the underlying space must be serialized externally (the public
// Engine holds its session write lock across repairs), matching the
// session contract of every other cached product.
type Coordinator struct {
	n      int
	ranges []Range
	work   []Worker
	rep    *Replica // nil for work-grid coordinators (NewGrid)
}

// New builds a coordinator over the dense space m with k in-process
// workers sharing one replica, at ζ bisection tolerance tol.
func New(m *core.Matrix, tol float64, k int) (*Coordinator, error) {
	if m == nil {
		return nil, errors.New("shard: nil matrix")
	}
	if k < 1 {
		return nil, fmt.Errorf("shard: %d shards", k)
	}
	rep := NewReplica(m, tol)
	c := &Coordinator{n: m.N(), ranges: Split(m.N(), k), rep: rep}
	for i := 0; i < k; i++ {
		c.work = append(c.work, &localWorker{rep: rep})
	}
	return c, nil
}

// NewStreamed builds a coordinator over a row-streamed space with k
// in-process workers sharing one streamed replica — the out-of-core shard
// path. ζ/ϕ maxima work bit-identically to New over the materialized
// space while each worker's row working set stays at
// maxTiles·tileRows rows (non-positive values select the core defaults);
// trackers and repairs return ErrStreamed. Construction streams every row
// once for the pruning extrema and is cancellable via ctx.
func NewStreamed(ctx context.Context, rs core.RowSpace, tol float64, k, tileRows, maxTiles int) (*Coordinator, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: %d shards", k)
	}
	rep, err := NewStreamedReplica(ctx, rs, tol, tileRows, maxTiles)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{n: rep.N(), ranges: Split(rep.N(), k), rep: rep}
	for i := 0; i < k; i++ {
		c.work = append(c.work, &localWorker{rep: rep})
	}
	return c, nil
}

// NewWithWorkers builds a coordinator over an explicit worker set — one
// row-range shard per worker — sharing the given replica for the
// coordinator-side state (tracker scan states, symmetry checks, local
// fallback). The workers may be any Worker implementation: in-process
// scanners, remote transport clients, or fault-tolerant wrappers that
// reassign a dead worker's row range to survivors. Because every worker
// computes with the same deterministic kernels over (replicas of) the same
// space, and the coordinator merges partials by row range rather than
// arrival order, results stay bit-identical to the unsharded scans no
// matter which worker actually served each range.
func NewWithWorkers(rep *Replica, workers []Worker) (*Coordinator, error) {
	if rep == nil {
		return nil, errors.New("shard: nil replica")
	}
	if len(workers) == 0 {
		return nil, errors.New("shard: no workers")
	}
	n := rep.N()
	return &Coordinator{n: n, ranges: Split(n, len(workers)), work: append([]Worker(nil), workers...), rep: rep}, nil
}

// NewGrid builds a work-dispatch coordinator over [0, n) with no replica:
// only the EachRange fan-out is available (the per-tx-row trace
// aggregation uses it).
func NewGrid(n, k int) *Coordinator {
	if k < 1 {
		k = 1
	}
	c := &Coordinator{n: n, ranges: Split(n, k)}
	for i := 0; i < k; i++ {
		c.work = append(c.work, nil)
	}
	return c
}

// Shards returns the number of shards K.
func (c *Coordinator) Shards() int { return len(c.ranges) }

// Ranges returns the row-range partition.
func (c *Coordinator) Ranges() []Range { return append([]Range(nil), c.ranges...) }

// Replica returns the shared in-process replica (nil for NewGrid
// coordinators).
func (c *Coordinator) Replica() *Replica { return c.rep }

// EachRange partitions [0, n) into the coordinator's K shards and runs
// body(shard, range) concurrently, one goroutine per shard — the generic
// fan-out every sharded phase is built on. n may differ from the
// coordinator's row count only for NewGrid work coordinators (the trace
// aggregation partitions readings' tx rows). The first error cancels the
// remaining shards' contexts and is returned; bodies poll ctx per row, so
// cancellation propagates to every worker well within a row's scan time.
func (c *Coordinator) EachRange(ctx context.Context, n int, body func(ctx context.Context, shard int, r Range) error) error {
	ranges := c.ranges
	if n != c.n {
		ranges = Split(n, len(c.work))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i, r := range ranges {
		if r.Len() == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, r Range) {
			defer wg.Done()
			if err := body(ctx, i, r); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				cancel()
			}
		}(i, r)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// maxPhase fans a ScanJob over the shards and merges the partial maxima.
func (c *Coordinator) maxPhase(ctx context.Context, sym bool, call func(ctx context.Context, w Worker, job ScanJob) (MaxResult, error), floor float64) (float64, error) {
	maxes := make([]float64, len(c.work))
	err := c.EachRange(ctx, c.n, func(ctx context.Context, i int, r Range) error {
		res, err := call(ctx, c.work[i], ScanJob{Rows: r, Sym: sym})
		if err != nil {
			return err
		}
		maxes[i] = res.Max
		return nil
	})
	if err != nil {
		return 0, err
	}
	best := floor
	for _, m := range maxes {
		if m > best {
			best = m
		}
	}
	return best, nil
}

// bandPhase fans a BandJob over the shards and concatenates the collected
// bands in shard order (deterministic; no consumer depends on order).
func (c *Coordinator) bandPhase(ctx context.Context, floor float64, call func(ctx context.Context, w Worker, job BandJob) (BandResult, error)) ([]core.BandTriplet, error) {
	parts := make([][]core.BandTriplet, len(c.work))
	err := c.EachRange(ctx, c.n, func(ctx context.Context, i int, r Range) error {
		res, err := call(ctx, c.work[i], BandJob{Rows: r, Floor: floor})
		if err != nil {
			return err
		}
		parts[i] = res.Band
		return nil
	})
	if err != nil {
		return nil, err
	}
	var band []core.BandTriplet
	for _, p := range parts {
		band = append(band, p...)
	}
	return band, nil
}

// repairPhase fans a RepairJob over the shards and concatenates the
// dirty-incident collections.
func (c *Coordinator) repairPhase(ctx context.Context, dirty []int, rowsOnly bool, floor float64, call func(ctx context.Context, w Worker, job RepairJob) (BandResult, error)) ([]core.BandTriplet, error) {
	parts := make([][]core.BandTriplet, len(c.work))
	err := c.EachRange(ctx, c.n, func(ctx context.Context, i int, r Range) error {
		res, err := call(ctx, c.work[i], RepairJob{Rows: r, Dirty: dirty, RowsOnly: rowsOnly, Floor: floor})
		if err != nil {
			return err
		}
		parts[i] = res.Band
		return nil
	})
	if err != nil {
		return nil, err
	}
	var band []core.BandTriplet
	for _, p := range parts {
		band = append(band, p...)
	}
	return band, nil
}

// Zeta runs the sharded exact metricity scan: per-shard row-range maxima
// merged with max — bit-identical to core.ZetaTol. Symmetric spaces scan
// the halved triplet set, exactly as the unsharded kernel does.
func (c *Coordinator) Zeta(ctx context.Context) (float64, error) {
	return c.maxPhase(ctx, c.rep.symmetric(), func(ctx context.Context, w Worker, job ScanJob) (MaxResult, error) {
		return w.ZetaMax(ctx, job)
	}, core.DefaultZetaFloor)
}

// Varphi runs the sharded exact ϕ scan (see Zeta).
func (c *Coordinator) Varphi(ctx context.Context) (float64, error) {
	return c.maxPhase(ctx, c.rep.symmetric(), func(ctx context.Context, w Worker, job ScanJob) (MaxResult, error) {
		return w.VarphiMax(ctx, job)
	}, core.VarphiFloor)
}

// ZetaTracker builds the incremental ζ tracker through the shards: a
// max phase fixes the exact maximum, a band phase collects every triplet
// above the tracker floor, and the merged band seeds the global tracker —
// which then shares its scan replica with the workers, so repairs route
// back through them.
func (c *Coordinator) ZetaTracker(ctx context.Context) (*core.ZetaTracker, error) {
	if c.rep.Streamed() {
		return nil, ErrStreamed
	}
	st, err := c.rep.ZetaState(ctx)
	if err != nil {
		return nil, err
	}
	zmax, err := c.maxPhase(ctx, false, func(ctx context.Context, w Worker, job ScanJob) (MaxResult, error) {
		return w.ZetaMax(ctx, job)
	}, core.DefaultZetaFloor)
	if err != nil {
		return nil, err
	}
	var band []core.BandTriplet
	if zmax > core.DefaultZetaFloor {
		band, err = c.bandPhase(ctx, core.ZetaBandFloor(zmax), func(ctx context.Context, w Worker, job BandJob) (BandResult, error) {
			return w.ZetaBand(ctx, job)
		})
		if err != nil {
			return nil, err
		}
	}
	return core.NewZetaTrackerFrom(st, zmax, band), nil
}

// VarphiTracker is ZetaTracker's ϕ analogue.
func (c *Coordinator) VarphiTracker(ctx context.Context) (*core.VarphiTracker, error) {
	if c.rep.Streamed() {
		return nil, ErrStreamed
	}
	st := c.rep.VarphiState()
	vmax, err := c.maxPhase(ctx, false, func(ctx context.Context, w Worker, job ScanJob) (MaxResult, error) {
		return w.VarphiMax(ctx, job)
	}, core.VarphiFloor)
	if err != nil {
		return nil, err
	}
	var band []core.BandTriplet
	if vmax > core.VarphiFloor {
		band, err = c.bandPhase(ctx, core.VarphiBandFloor(vmax), func(ctx context.Context, w Worker, job BandJob) (BandResult, error) {
			return w.VarphiBand(ctx, job)
		})
		if err != nil {
			return nil, err
		}
	}
	return core.NewVarphiTrackerFrom(st, vmax, band), nil
}

// RepairZeta routes a session repair through the shards: the tracker
// patches the shared replica and drops dirty candidates, every worker
// re-scans the dirty-incident triplets of its row range (dirty rows map
// to their owning shards' full-row rescans), and the merged band restores
// the tracked value. A drained band falls back to the full sharded
// two-phase rescan. Bit-identical to ZetaTracker.Repair.
func (c *Coordinator) RepairZeta(ctx context.Context, t *core.ZetaTracker, dirty []int, rowsOnly bool) (float64, error) {
	if c.rep.Streamed() {
		return 0, ErrStreamed
	}
	c.rep.mutated()
	t.PatchAndDrop(dirty, rowsOnly)
	band, err := c.repairPhase(ctx, dirty, rowsOnly, t.Floor(), func(ctx context.Context, w Worker, job RepairJob) (BandResult, error) {
		return w.ZetaRepair(ctx, job)
	})
	if err != nil {
		return 0, err
	}
	z, needRescan := t.AbsorbRepair(band)
	if !needRescan {
		return z, nil
	}
	zmax, err := c.maxPhase(ctx, false, func(ctx context.Context, w Worker, job ScanJob) (MaxResult, error) {
		return w.ZetaMax(ctx, job)
	}, core.DefaultZetaFloor)
	if err != nil {
		return 0, err
	}
	var full []core.BandTriplet
	if zmax > core.DefaultZetaFloor {
		full, err = c.bandPhase(ctx, core.ZetaBandFloor(zmax), func(ctx context.Context, w Worker, job BandJob) (BandResult, error) {
			return w.ZetaBand(ctx, job)
		})
		if err != nil {
			return 0, err
		}
	}
	t.Reseed(zmax, full)
	return zmax, nil
}

// RepairVarphi is RepairZeta's ϕ analogue.
func (c *Coordinator) RepairVarphi(ctx context.Context, t *core.VarphiTracker, dirty []int, rowsOnly bool) (float64, error) {
	if c.rep.Streamed() {
		return 0, ErrStreamed
	}
	c.rep.mutated()
	t.PatchAndDrop(dirty, rowsOnly)
	band, err := c.repairPhase(ctx, dirty, rowsOnly, t.Floor(), func(ctx context.Context, w Worker, job RepairJob) (BandResult, error) {
		return w.VarphiRepair(ctx, job)
	})
	if err != nil {
		return 0, err
	}
	v, needRescan := t.AbsorbRepair(band)
	if !needRescan {
		return v, nil
	}
	vmax, err := c.maxPhase(ctx, false, func(ctx context.Context, w Worker, job ScanJob) (MaxResult, error) {
		return w.VarphiMax(ctx, job)
	}, core.VarphiFloor)
	if err != nil {
		return 0, err
	}
	var full []core.BandTriplet
	if vmax > core.VarphiFloor {
		full, err = c.bandPhase(ctx, core.VarphiBandFloor(vmax), func(ctx context.Context, w Worker, job BandJob) (BandResult, error) {
			return w.VarphiBand(ctx, job)
		})
		if err != nil {
			return 0, err
		}
	}
	t.Reseed(vmax, full)
	return vmax, nil
}
