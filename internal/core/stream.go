package core

import (
	"context"
	"fmt"
	"math"

	"decaynet/internal/par"
)

// Out-of-core forms of the exact triplet scans. A StreamScan is the
// row-streamed analogue of ZetaScanState/VarphiScanState: instead of
// holding n² values it keeps only the O(n) row extrema and pages rows
// through a bounded tile cache (RowPager) while the range scans run the
// same ζ and ϕ pair kernels (see shardscan.go). Every kept value is the
// per-pair oracle's, so per-range maxima max-merge into exactly the
// unsharded ZetaTol / Varphi results. This is what lets internal/shard
// row-range jobs run on spaces that never fit dense float64 (see
// internal/tier): a worker's working set is maxTiles·tileRows rows, not n².

// Default paging geometry for streamed scans: tiles of 256 rows, at most 4
// resident per scan. A ζ range scan touches one x-band and one z-tile at a
// time (the triplet kernels are blocked at tripletTile(n) ≤ 64 rows), so 4
// tiles hold the whole working set with a spare against boundary straddle.
const (
	DefaultStreamTileRows = 256
	DefaultStreamMaxTiles = 4
)

// RowPager pages rows of a RowSpace through a fixed-size LRU cache of row
// tiles, applying an optional in-place transform to each row as it is
// loaded (the streamed ζ scan pages G this way). It is a single-goroutine
// helper: the slices
// returned by Row alias tile buffers that a later Row call may evict and
// reuse, so callers copy any row they hold across a subsequent fetch (the
// streamed kernels copy their x-row and consume z/y-rows immediately).
type RowPager struct {
	rs        RowSpace
	n         int
	tileRows  int
	maxTiles  int
	transform func(i int, row []float64)

	tiles map[int]*pagerTile
	tick  int64
	loads int64
}

type pagerTile struct {
	rows []float64
	last int64
}

// NewRowPager builds a pager over rs with the given tile geometry.
// Non-positive tileRows / maxTiles select the defaults; maxTiles is clamped
// to ≥ 2 so an x-band and a z-tile can be resident simultaneously.
func NewRowPager(rs RowSpace, tileRows, maxTiles int, transform func(i int, row []float64)) *RowPager {
	if tileRows <= 0 {
		tileRows = DefaultStreamTileRows
	}
	if maxTiles <= 0 {
		maxTiles = DefaultStreamMaxTiles
	}
	if maxTiles < 2 {
		maxTiles = 2
	}
	return &RowPager{
		rs:        rs,
		n:         rs.N(),
		tileRows:  tileRows,
		maxTiles:  maxTiles,
		transform: transform,
		tiles:     make(map[int]*pagerTile, maxTiles),
	}
}

// Row returns row i (transformed), loading and possibly evicting a tile.
// The slice is valid until the next Row call that faults a tile.
func (p *RowPager) Row(i int) []float64 {
	t := i / p.tileRows
	pt := p.tiles[t]
	if pt == nil {
		pt = p.load(t)
	}
	p.tick++
	pt.last = p.tick
	off := (i - t*p.tileRows) * p.n
	return pt.rows[off : off+p.n]
}

// load faults tile t, evicting the least-recently-used tile (and reusing
// its buffer) once maxTiles are resident.
func (p *RowPager) load(t int) *pagerTile {
	var pt *pagerTile
	if len(p.tiles) >= p.maxTiles {
		victim, oldest := -1, int64(math.MaxInt64)
		for k, cand := range p.tiles {
			if cand.last < oldest {
				victim, oldest = k, cand.last
			}
		}
		pt = p.tiles[victim]
		delete(p.tiles, victim)
	} else {
		pt = &pagerTile{rows: make([]float64, p.tileRows*p.n)}
	}
	lo := t * p.tileRows
	hi := lo + p.tileRows
	if hi > p.n {
		hi = p.n
	}
	for r := lo; r < hi; r++ {
		row := pt.rows[(r-lo)*p.n : (r-lo+1)*p.n]
		p.rs.Row(r, row)
		if p.transform != nil {
			p.transform(r, row)
		}
	}
	p.loads++
	p.tiles[t] = pt
	return pt
}

// Loads returns how many tile faults the pager has served — the streaming
// overhead a test can bound.
func (p *RowPager) Loads() int64 { return p.loads }

// HeldBytes returns the bytes currently pinned in resident tiles.
func (p *RowPager) HeldBytes() int64 {
	return int64(len(p.tiles)) * int64(p.tileRows) * int64(p.n) * 8
}

// StreamScan is the streamed scan replica over a RowSpace: the O(n) pruning
// extrema of both the decay and log-decay matrices, plus the paging
// geometry its range scans use. Construction streams every row exactly
// once (parallel, transient buffers); after that the state is immutable
// and safe for concurrent range scans — each scan runs its own private
// RowPager. Peak memory per concurrent scan is maxTiles·tileRows·n·8 bytes.
type StreamScan struct {
	rs       RowSpace
	n        int
	tol      float64
	tileRows int
	maxTiles int

	logMax, logMin []float64 // off-diagonal extrema of ln f per row
	fMax, fMin     []float64 // off-diagonal extrema of f per row
	seed           float64   // a ζ value rs attains, where ζ range scans start
}

// NewStreamScan derives the pruning extrema of rs for streamed ζ (at
// bisection tolerance tol) and ϕ range scans, and the seed: the largest
// solved ζ of the triplets (x, farthest node, nearest node), one F call
// per row. Non-positive tileRows / maxTiles select the package defaults.
func NewStreamScan(ctx context.Context, rs RowSpace, tol float64, tileRows, maxTiles int) (*StreamScan, error) {
	n := rs.N()
	s := &StreamScan{rs: rs, n: n, tol: tol, tileRows: tileRows, maxTiles: maxTiles, seed: DefaultZetaFloor}
	if n < 3 {
		return s, ctx.Err()
	}
	seed := newSharedMax(DefaultZetaFloor)
	s.logMax = make([]float64, n)
	s.logMin = make([]float64, n)
	s.fMax = make([]float64, n)
	s.fMin = make([]float64, n)
	err := par.ForChunkedCtx(ctx, n, func(lo, hi int) {
		buf := make([]float64, n)
		best := DefaultZetaFloor
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				return
			}
			rs.Row(i, buf)
			far, near := farNear(buf, i)
			s.fMax[i], s.fMin[i] = buf[far], buf[near]
			// ln is increasing on the positive decays, so the log
			// extrema are the logs of the decay extrema.
			s.logMax[i], s.logMin[i] = math.Log(s.fMax[i]), math.Log(s.fMin[i])
			best = max(best, zetaTriplet(s.logMax[i], s.logMin[i], math.Log(rs.F(near, far)), tol))
		}
		seed.raise(best)
	})
	if err != nil {
		return nil, err
	}
	s.seed = seed.load()
	return s, nil
}

// N returns the number of nodes scanned.
func (s *StreamScan) N() int { return s.n }

// StreamExtrema is the serializable O(n) pruning state of a StreamScan:
// the per-row off-diagonal extrema of the decay and log-decay matrices,
// and the seed ζ range scans start at (a value the space attains).
// Shipping it lets a remote replica of an immutable streamed session skip
// the O(n²) extrema derivation pass — NewStreamScanFrom rebuilds an
// equivalent scan from it, bit-identically, because range scans read only
// these arrays and the shared row source. All four slices are empty when
// n < 3 (no triplets to scan).
type StreamExtrema struct {
	LogMax []float64
	LogMin []float64
	FMax   []float64
	FMin   []float64
	Seed   float64
}

// Extrema returns the scan's pruning extrema. The slices are the scan's
// own (immutable by contract); callers that mutate must copy.
func (s *StreamScan) Extrema() StreamExtrema {
	return StreamExtrema{LogMax: s.logMax, LogMin: s.logMin, FMax: s.fMax, FMin: s.fMin, Seed: s.seed}
}

// Geometry returns the scan's configured paging geometry as given (zero
// values mean the package defaults, applied at pager construction).
func (s *StreamScan) Geometry() (tileRows, maxTiles int) {
	return s.tileRows, s.maxTiles
}

// NewStreamScanFrom rebuilds a streamed scan from previously derived
// extrema (see Extrema) instead of streaming every row — the O(n) sync
// path for remote replicas of immutable streamed sessions. The caller
// certifies that ex was derived from a space bit-identical to rs; range
// scans over the result are then bit-identical to scans over the original.
func NewStreamScanFrom(rs RowSpace, tol float64, tileRows, maxTiles int, ex StreamExtrema) (*StreamScan, error) {
	n := rs.N()
	s := &StreamScan{rs: rs, n: n, tol: tol, tileRows: tileRows, maxTiles: maxTiles, seed: max(ex.Seed, DefaultZetaFloor)}
	if n < 3 {
		return s, nil
	}
	if len(ex.LogMax) != n || len(ex.LogMin) != n || len(ex.FMax) != n || len(ex.FMin) != n {
		return nil, fmt.Errorf("core: stream extrema of %d/%d/%d/%d rows for n=%d",
			len(ex.LogMax), len(ex.LogMin), len(ex.FMax), len(ex.FMin), n)
	}
	s.logMax, s.logMin, s.fMax, s.fMin = ex.LogMax, ex.LogMin, ex.FMax, ex.FMin
	return s, nil
}

// ZetaMaxRange returns the larger of the scan's seed and the exact ζ
// maximum over the ordered triplets whose first index lies in [xlo, xhi)
// (see ZetaScanState.MaxRange). It runs the ζ pair kernel on G's rows at
// ζ_G = the start value, paged through a private RowPager and transformed
// as their tiles load, and reads the decays of the few surviving triplets
// through F; when G's exponents leave the float64 range it pages the
// decay rows instead and runs without the linear screen. The screens and
// the solver are the dense scans', so the max-merge over a row partition
// has ZetaPerPair's bits. sym certifies exact decay symmetry (y starts at
// x+1). With pool the range is split into chunks scanned concurrently on
// the shared worker pool, each through its own pagers.
func (s *StreamScan) ZetaMaxRange(ctx context.Context, xlo, xhi int, sym, pool bool) (float64, error) {
	if s.n < 3 || xlo >= xhi {
		return DefaultZetaFloor, ctx.Err()
	}
	return chunkMax(ctx, xlo, xhi, pool, s.seed, func(lo, hi int) (float64, error) {
		k := baseZetaKernel(s.rs, s.tol)
		k.lnMax, k.lnMin = s.logMax, s.logMin
		if k.pageG(s.rs, s.tileRows, s.maxTiles, s.fMax, s.fMin, s.seed) {
			return maxRange(ctx, k, lo, hi, sym, s.seed, nil)
		}
		return maxRange(ctx, k, lo, hi, sym, s.seed, NewRowPager(s.rs, s.tileRows, s.maxTiles, nil))
	})
}

// VarphiMaxRange returns the exact ϕ maximum over triplets with first index
// in [xlo, xhi), running the ϕ pair kernel on paged decay rows — the ϕ
// analogue of ZetaMaxRange. sym halves the scan on exactly symmetric
// spaces (z starts at x+1).
func (s *StreamScan) VarphiMaxRange(ctx context.Context, xlo, xhi int, sym, pool bool) (float64, error) {
	if s.n < 3 || xlo >= xhi {
		return VarphiFloor, ctx.Err()
	}
	return chunkMax(ctx, xlo, xhi, pool, VarphiFloor, func(lo, hi int) (float64, error) {
		k := &varphiKernel{n: s.n, fMax: s.fMax, fMin: s.fMin}
		return maxRange(ctx, k, lo, hi, sym, VarphiFloor, NewRowPager(s.rs, s.tileRows, s.maxTiles, nil))
	})
}

// chunkMax returns scan(xlo, xhi) or, with pool, the larger of start and
// scan over each chunk of [xlo, xhi), the chunks run on the pool.
func chunkMax(ctx context.Context, xlo, xhi int, pool bool, start float64, scan func(lo, hi int) (float64, error)) (float64, error) {
	if !pool {
		return scan(xlo, xhi)
	}
	best := newSharedMax(start)
	err := par.ForChunkedCtx(ctx, xhi-xlo, func(lo, hi int) {
		if v, err := scan(xlo+lo, xlo+hi); err == nil {
			best.raise(v)
		}
	})
	if err != nil {
		return 0, err
	}
	return best.load(), nil
}
