// Package shard is the backend behind every exact metricity read: a
// Coordinator partitions the row index space of a decay space into K
// contiguous row-range shards and dispatches each shard's work unit (the
// shard's row band of the triplet scan) to a Worker over a message-shaped
// boundary, then merges the partial results — per-shard ζ/ϕ maxima and
// band collections into global tracker state, per-shard repair
// collections into the incremental session repairs. Affectance matrices
// are not sharded: their O(links²) build costs no more than shipping its
// O(links²) output, so sessions build them in process
// (sinr.ComputeAffectancesCtx).
//
// Every reduction the coordinator performs is associative and
// schedule-independent — maxima merge with max, bands concatenate in shard
// order — and every shard runs the same ζ and ϕ pair kernels over its row
// range as the unsharded scans (core.ZetaScanState / core.VarphiScanState,
// core.StreamScan), each of which keeps exactly the triplets above its
// bound, so the sharded results are bit-identical to the single-machine
// ones and to the per-pair oracles, whoever computes each range.
//
// The Worker interface is message-shaped: three methods — Max, Band and
// Repair — each take and return plain wire-format structs (json-tagged
// values, no shared pointers) naming the parameter they scan, so a
// cross-machine transport only needs to marshal them. A session's
// workers are one of three kinds: a single in-process worker whose range
// scans run on the shared internal/par pool (an unsharded session), K
// in-process workers that each scan their range serially on one
// goroutine against a shared Replica (decaynet.WithShards), or remote
// workers (internal/shard/remote) that each hold their own replica, kept
// current by shipped mutation batches (decaynet.WithRemoteWorkers).
package shard

import (
	"context"
	"errors"
	"slices"
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

// EachRange runs body(shard, range) concurrently for every non-empty
// range, one goroutine each — the fan-out every sharded phase is built on
// (the per-tx-row trace aggregation uses it directly). The first error
// cancels the remaining bodies' contexts and is returned; bodies poll ctx
// per row, so cancellation reaches every worker well within a row's scan
// time.
func EachRange(ctx context.Context, ranges []Range, body func(ctx context.Context, shard int, r Range) error) error {
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

// Param names the triplet parameter a job scans.
type Param uint8

const (
	// Zeta is the metricity ζ of Def. 2.2.
	Zeta Param = iota
	// Varphi is the variant ϕ of Sec. 4.2.
	Varphi
)

// floor returns the parameter's universal floor: the value a space with
// no triplet above it reports.
func (p Param) floor() float64 {
	if p == Varphi {
		return core.VarphiFloor
	}
	return core.DefaultZetaFloor
}

// bandFloor returns the floor of the candidate band a tracker keeps for a
// full-scan maximum of max.
func (p Param) bandFloor(max float64) float64 {
	if p == Varphi {
		return core.VarphiBandFloor(max)
	}
	return core.ZetaBandFloor(max)
}

// ScanJob asks a worker for the exact maximum of Param over the triplets
// whose first index lies in its row range, or a larger value the space
// attains (the seed a ζ scan starts at), so the max-merge over the ranges
// is the exact full maximum. Sym certifies exact decay symmetry, allowing
// the halved scan.
type ScanJob struct {
	Param Param `json:"param"`
	Rows  Range `json:"rows"`
	Sym   bool  `json:"sym"`
}

// MaxResult is a shard's partial maximum.
type MaxResult struct {
	Max float64 `json:"max"`
}

// BandJob asks a worker for every triplet in its row range whose value of
// Param exceeds Floor — the band-collection phase seeding the global
// trackers.
type BandJob struct {
	Param Param   `json:"param"`
	Rows  Range   `json:"rows"`
	Floor float64 `json:"floor"`
}

// RepairJob asks a worker to re-scan the triplets of its row range whose
// values of Param a mutation may have changed, collecting those above
// Floor. RowsOnly mirrors the tracker contract: only the dirty rows
// changed, not their columns. The scan then skips the slices that read
// clean rows only (ζ's (x, y ∈ M, z ∉ M) and ϕ's (x, y ∉ M, z ∈ M) for
// clean x), exactly as the coordinator's band drop keeps their candidates.
type RepairJob struct {
	Param    Param   `json:"param"`
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
// workers scan a shared Replica; remote transports marshal the same
// structs to workers holding their own replicas. All methods poll ctx per
// row and return ctx.Err() promptly when cancelled.
type Worker interface {
	Max(ctx context.Context, job ScanJob) (MaxResult, error)
	Band(ctx context.Context, job BandJob) (BandResult, error)
	Repair(ctx context.Context, job RepairJob) (BandResult, error)
}

// ErrStreamed is returned for phases a streamed (row-paged, non-dense)
// replica cannot serve: band collection, trackers and repairs all assume a
// mutable dense matrix, and streamed sessions are immutable by contract.
var ErrStreamed = errors.New("shard: operation not supported on a streamed replica (streamed sessions are immutable)")

// Replica is the session state a worker scans: the dense decay matrix plus
// lazily built scan states (the ζ screen matrix G, pruning extrema). In
// process, one Replica is shared by every worker and patched in place by
// the session's repairs (under the session write lock); a remote worker
// holds its own and applies shipped mutation batches.
//
// A streamed replica holds no dense matrix at all: it carries a
// core.StreamScan — O(n) pruning extrema over a core.RowSpace — and its
// workers page rows through bounded tile caches during range scans. Max
// scans work identically (and bit-identically); trackers and repairs
// return ErrStreamed.
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

// NewReplica wraps space for scanning at ζ bisection tolerance tol. A
// *core.Matrix is scanned in place (dense storage; the session may mutate
// it and Patch the replica). Any other space is streamed, never
// materialized densely: construction streams every row once to derive the
// O(n) pruning extrema (cancellable via ctx), and each range scan holds at
// most maxTiles·tileRows rows (non-positive values select the
// core.DefaultStream* geometry).
func NewReplica(ctx context.Context, space core.Space, tol float64, tileRows, maxTiles int) (*Replica, error) {
	if space == nil {
		return nil, errors.New("shard: nil space")
	}
	if m, ok := space.(*core.Matrix); ok {
		return &Replica{m: m, tol: tol}, nil
	}
	rs := core.Rows(space)
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
// bit-identical to scans over a NewReplica of the same space.
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
func (r *Replica) Streamed() bool { return r.ss != nil }

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

// M returns the dense space the replica scans (nil for streamed
// replicas). Mutating it without a matching Patch leaves the scan states
// stale — the session layer owns that discipline.
func (r *Replica) M() *core.Matrix { return r.m }

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

// Invalidate drops the scan state of p (the matrix mutated without an
// incremental repair); the next scan that needs one rebuilds it.
func (r *Replica) Invalidate(p Param) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p == Zeta {
		r.zs = nil
	} else {
		r.vs = nil
	}
	r.sym = 0
}

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

// mutated drops the cached symmetry after the session mutated the matrix.
func (r *Replica) mutated() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sym = 0
}

// scanState is a dense replica's ζ or ϕ scan state.
type scanState interface {
	N() int
	MaxRange(ctx context.Context, xlo, xhi int, sym, pool bool) (float64, error)
	CollectRange(ctx context.Context, xlo, xhi int, floor float64, pool bool) ([]core.BandTriplet, error)
	RepairRange(ctx context.Context, xlo, xhi int, dirty []int, mask []bool, rowsOnly bool, floor float64, pool bool) ([]core.BandTriplet, error)
}

// state returns p's scan state, building it on first use. Streamed
// replicas have none.
func (r *Replica) state(ctx context.Context, p Param) (scanState, error) {
	switch {
	case r.Streamed():
		return nil, ErrStreamed
	case p == Zeta:
		return r.ZetaState(ctx)
	}
	return r.VarphiState(), nil
}

// max runs job's range maximum, on the pool when pool is set. Without a
// ζ scan state — no tracker asked for one — the pool worker scans once
// with G at the seed, as core.ZetaTolCtx does, and keeps no n×n buffer.
func (r *Replica) max(ctx context.Context, job ScanJob, pool bool) (float64, error) {
	lo, hi, sym := job.Rows.Lo, job.Rows.Hi, job.Sym
	switch {
	case r.Streamed() && job.Param == Zeta:
		return r.ss.ZetaMaxRange(ctx, lo, hi, sym, pool)
	case r.Streamed():
		return r.ss.VarphiMaxRange(ctx, lo, hi, sym, pool)
	case job.Param == Zeta && pool && !r.hasZetaState():
		return core.ZetaTolRangeCtx(ctx, r.m, r.tol, lo, hi, sym)
	}
	st, err := r.state(ctx, job.Param)
	if err != nil {
		return 0, err
	}
	return st.MaxRange(ctx, lo, hi, sym, pool)
}

// hasZetaState reports whether the ζ scan state is built.
func (r *Replica) hasZetaState() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.zs != nil
}

// localWorker is the in-process Worker. A shard worker scans its range
// serially on the calling goroutine — the coordinator's fan-out supplies
// the concurrency, so K shards scale to K cores without oversubscribing
// the shared pool — and the unsharded session's single worker (pool) runs
// its range scans on internal/par.
type localWorker struct {
	rep  *Replica
	pool bool
}

// NewLocalWorker wraps a replica as an in-process shard Worker: serial
// scans on the calling goroutine. Transports serve their replicas through
// it (the remote worker daemon), and fault-tolerant pools fall back to it
// for coordinator-local computation when every remote worker is dead.
func NewLocalWorker(rep *Replica) Worker { return &localWorker{rep: rep} }

func (w *localWorker) Max(ctx context.Context, job ScanJob) (MaxResult, error) {
	max, err := w.rep.max(ctx, job, w.pool)
	return MaxResult{Max: max}, err
}

func (w *localWorker) Band(ctx context.Context, job BandJob) (BandResult, error) {
	st, err := w.rep.state(ctx, job.Param)
	if err != nil {
		return BandResult{}, err
	}
	band, err := st.CollectRange(ctx, job.Rows.Lo, job.Rows.Hi, job.Floor, w.pool)
	return BandResult{Band: band}, err
}

func (w *localWorker) Repair(ctx context.Context, job RepairJob) (BandResult, error) {
	st, err := w.rep.state(ctx, job.Param)
	if err != nil {
		return BandResult{}, err
	}
	mask := dirtyMask(st.N(), job.Dirty)
	band, err := st.RepairRange(ctx, job.Rows.Lo, job.Rows.Hi, job.Dirty, mask, job.RowsOnly, job.Floor, w.pool)
	return BandResult{Band: band}, err
}

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

// Tracker is the candidate-band state a coordinator seeds and repairs
// through its workers: a *core.ZetaTracker or a *core.VarphiTracker.
type Tracker interface {
	Floor() float64
	PatchAndDrop(dirty []int, rowsOnly bool) []bool
	AbsorbRepair(band []core.BandTriplet) (value float64, needRescan bool)
	Reseed(max float64, band []core.BandTriplet)
}

// Coordinator owns a row-range partition of a decay space and the
// workers serving it. It is safe for concurrent use by readers; mutations
// to the underlying space must be serialized externally (the public
// Engine holds its session write lock across repairs), matching the
// session contract of every other cached product.
type Coordinator struct {
	ranges []Range
	work   []Worker
	rep    *Replica
}

// New builds a coordinator over rep with one row-range shard per worker.
// The workers may be any Worker implementation — in-process shard workers
// (NewLocalWorker), remote transport clients, or fault-tolerant wrappers
// that reassign a dead worker's range to survivors — and rep holds the
// coordinator-side state (tracker scan states, symmetry checks, local
// fallback). With no workers the coordinator has one in-process worker
// whose range scans run on the shared internal/par pool: the unsharded
// session. Every worker computes with the same deterministic kernels over
// (replicas of) the same space, and partials merge by row range rather
// than arrival order, so results are bit-identical whichever worker
// served each range.
func New(rep *Replica, workers []Worker) (*Coordinator, error) {
	if rep == nil {
		return nil, errors.New("shard: nil replica")
	}
	if len(workers) == 0 {
		workers = []Worker{&localWorker{rep: rep, pool: true}}
	}
	return &Coordinator{ranges: Split(rep.N(), len(workers)), work: slices.Clone(workers), rep: rep}, nil
}

// Shards returns the number of shards K.
func (c *Coordinator) Shards() int { return len(c.ranges) }

// Replica returns the coordinator-side replica.
func (c *Coordinator) Replica() *Replica { return c.rep }

// Max runs the exact scan of p through the shards: per-shard row-range
// maxima merged with max — bit-identical to core.ZetaTol and core.Varphi.
// Symmetric spaces scan the halved triplet set, exactly as the unsharded
// kernels do.
func (c *Coordinator) Max(ctx context.Context, p Param) (float64, error) {
	return c.maxPhase(ctx, p, c.rep.symmetric())
}

// Tracker builds the incremental tracker of p through the shards: a max
// phase fixes the exact maximum, a band phase collects every triplet above
// the tracker floor, and the merged band seeds the global tracker — which
// shares its scan state with in-process workers, so repairs route back
// through them. It returns the tracker and the tracked value.
func (c *Coordinator) Tracker(ctx context.Context, p Param) (Tracker, float64, error) {
	// The scan state is built before the scans: in-process workers read it.
	st, err := c.rep.state(ctx, p)
	if err != nil {
		return nil, 0, err
	}
	max, band, err := c.fullScan(ctx, p)
	if err != nil {
		return nil, 0, err
	}
	if p == Zeta {
		return core.NewZetaTrackerFrom(st.(*core.ZetaScanState), max, band), max, nil
	}
	return core.NewVarphiTrackerFrom(st.(*core.VarphiScanState), max, band), max, nil
}

// Repair routes a session repair of p's tracker t through the shards: the
// tracker patches the shared replica and drops dirty candidates, every
// worker re-scans the dirty-incident triplets of its row range (dirty rows
// map to their owning shards' full-row rescans), and the merged band
// restores the tracked value. A drained band falls back to the full
// sharded two-phase rescan. Bit-identical to the tracker's own Repair.
func (c *Coordinator) Repair(ctx context.Context, p Param, t Tracker, dirty []int, rowsOnly bool) (float64, error) {
	if c.rep.Streamed() {
		return 0, ErrStreamed
	}
	c.rep.mutated()
	t.PatchAndDrop(dirty, rowsOnly)
	floor := t.Floor()
	band, err := c.bandPhase(ctx, func(ctx context.Context, w Worker, r Range) (BandResult, error) {
		return w.Repair(ctx, RepairJob{Param: p, Rows: r, Dirty: dirty, RowsOnly: rowsOnly, Floor: floor})
	})
	if err != nil {
		return 0, err
	}
	v, needRescan := t.AbsorbRepair(band)
	if !needRescan {
		return v, nil
	}
	max, full, err := c.fullScan(ctx, p)
	if err != nil {
		return 0, err
	}
	t.Reseed(max, full)
	return max, nil
}

// fullScan is a tracker's full two-phase scan of p through the shards:
// the exact maximum over every ordered triplet, then every triplet above
// the band floor a margin below it.
func (c *Coordinator) fullScan(ctx context.Context, p Param) (float64, []core.BandTriplet, error) {
	max, err := c.maxPhase(ctx, p, false)
	if err != nil || max <= p.floor() {
		return max, nil, err
	}
	floor := p.bandFloor(max)
	band, err := c.bandPhase(ctx, func(ctx context.Context, w Worker, r Range) (BandResult, error) {
		return w.Band(ctx, BandJob{Param: p, Rows: r, Floor: floor})
	})
	return max, band, err
}

// gather runs call on every shard's worker and range, concurrently, and
// returns the results in shard order.
func gather[T any](ctx context.Context, c *Coordinator, call func(ctx context.Context, w Worker, r Range) (T, error)) ([]T, error) {
	out := make([]T, len(c.work))
	err := EachRange(ctx, c.ranges, func(ctx context.Context, i int, r Range) error {
		var err error
		out[i], err = call(ctx, c.work[i], r)
		return err
	})
	return out, err
}

// maxPhase fans a ScanJob of p over the shards and merges the partial
// maxima.
func (c *Coordinator) maxPhase(ctx context.Context, p Param, sym bool) (float64, error) {
	parts, err := gather(ctx, c, func(ctx context.Context, w Worker, r Range) (MaxResult, error) {
		return w.Max(ctx, ScanJob{Param: p, Rows: r, Sym: sym})
	})
	if err != nil {
		return 0, err
	}
	best := p.floor()
	for _, m := range parts {
		if m.Max > best {
			best = m.Max
		}
	}
	return best, nil
}

// bandPhase fans a band or repair job over the shards and concatenates
// the collected bands in shard order (deterministic; no consumer depends
// on order).
func (c *Coordinator) bandPhase(ctx context.Context, call func(ctx context.Context, w Worker, r Range) (BandResult, error)) ([]core.BandTriplet, error) {
	parts, err := gather(ctx, c, call)
	if err != nil {
		return nil, err
	}
	var band []core.BandTriplet
	for _, p := range parts {
		band = append(band, p.Band...)
	}
	return band, nil
}
