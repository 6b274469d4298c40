package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"decaynet/internal/par"
)

// The exact triplet kernels. Every exact ζ route — ZetaTolCtx, a shard
// worker's row range over a ZetaScanState or a StreamScan, and a tracker's
// full scan, band collection and repair — runs one ζ pair kernel
// (zetaRun.pair), and every exact ϕ route one ϕ pair kernel
// (varphiRun.pair), through the shared scan loops at the end of this
// file. A run keeps the triplets whose value exceeds its bound: in max
// mode the bound is a running maximum that each kept triplet raises, in
// band mode it is a fixed floor and the kept triplets are appended to a
// band. A triplet is
// skipped only when its value provably cannot exceed the bound, and a kept
// value is the expression the per-pair oracle evaluates on the same
// decays. The maximum of a set does not depend on the order in which it
// is visited, and concatenated bands are the same multiset, so every
// route returns ZetaPerPair's (VarphiPerPair's) bits for every tolerance,
// schedule and row partition, and per-shard maxima and bands merge into
// exactly the unsharded results. ZetaScanState, VarphiScanState and
// StreamScan hold the data the kernels read and nothing else.
//
// The incremental trackers (ZetaTracker / VarphiTracker) are built on the
// same states, which is what lets a sharding coordinator seed the global
// tracker from per-shard band maxima and route repairs back through the
// shards (see internal/shard).

// BandTriplet is one candidate of a ζ/ϕ candidate band: the triplet's
// value and coordinates. It is a plain wire-format value so shard workers
// can ship collected bands back to their coordinator.
type BandTriplet struct {
	Val float64 `json:"val"`
	X   int32   `json:"x"`
	Y   int32   `json:"y"`
	Z   int32   `json:"z"`
}

// maxBand returns the largest candidate value, or floor for an empty set.
func maxBand(set []BandTriplet, floor float64) float64 {
	v := floor
	for i := range set {
		if set[i].Val > v {
			v = set[i].Val
		}
	}
	return v
}

// dropDirtyBand removes, in place, the candidates whose value a mutation
// of the dirty nodes may have changed. A triplet's value reads two rows of
// the decay matrix: rows X and Z for ζ, rows X and Y for ϕ (readsY). After
// a mutation that also rewrote columns, every candidate incident to a
// dirty node goes. After a rowsOnly mutation only the candidates with a
// dirty read row go: a kept candidate reads untouched entries only, so its
// stored value has the bits a rescan would give.
func dropDirtyBand(set []BandTriplet, mask []bool, rowsOnly, readsY bool) []BandTriplet {
	out := set[:0]
	for _, c := range set {
		second := c.Z
		if readsY {
			second = c.Y
		}
		changed := mask[c.X] || mask[second]
		if !rowsOnly {
			changed = changed || mask[c.Y] || mask[c.Z]
		}
		if !changed {
			out = append(out, c)
		}
	}
	return out
}

// ZetaScanState is the ζ scan replica of a dense space: the linear
// screen's G and the row extrema the ζ pair kernel reads beside the
// Matrix, which is read in place, and the seed value its max scans start
// at. Between PatchRows calls the state is safe for concurrent range
// scans.
type ZetaScanState struct {
	mu   sync.Mutex // guards k and seed: scans copy k while another may rebuild G
	k    zetaKernel
	seed float64 // seedRows over every row of the current matrix; 0 after a patch
}

// NewZetaScanState derives the row extrema of m, solves its seed
// triplets and builds G at ζ_G = ZetaBandFloor(seed), at or below the
// floor of any tracker band over m (parallel, O(n²)), for range scanning
// at bisection tolerance tol. ctx is polled per row; a cancelled build
// returns ctx.Err().
func NewZetaScanState(ctx context.Context, m *Matrix, tol float64) (*ZetaScanState, error) {
	k, seed, err := newZetaKernel(ctx, m, tol)
	if err == nil && k.n >= 3 {
		err = k.buildG(ctx, ZetaBandFloor(seed))
	}
	if err != nil {
		return nil, err
	}
	return &ZetaScanState{k: *k, seed: seed}, nil
}

// N returns the number of nodes scanned.
func (s *ZetaScanState) N() int { return s.k.n }

// maxKernel returns a copy of the state's kernel for a max scan and the
// value the scan starts at: the seed, a value the current matrix attains.
// After a patch it solves the seed triplets again, and when the seed fell
// below ζ_G — the maximum fell, so the next band floor will too — it
// rebuilds G at ζ_G = ZetaBandFloor(seed) in fresh buffers, so concurrent
// scans holding the old kernel read the old G.
func (s *ZetaScanState) maxKernel(ctx context.Context) (*zetaKernel, float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seed == 0 {
		seed, err := s.k.seed(ctx, false)
		if err != nil {
			return nil, 0, err
		}
		if seed < s.k.zetaG {
			if err := s.k.buildG(ctx, ZetaBandFloor(seed)); err != nil {
				return nil, 0, err
			}
		}
		s.seed = seed
	}
	k := s.k
	return &k, s.seed, nil
}

// bandKernel returns a copy of the state's kernel for a band scan at
// floor, first rebuilding G at ζ_G = floor when a reseed dropped the floor
// below ζ_G.
func (s *ZetaScanState) bandKernel(floor float64) *zetaKernel {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.k.g != nil && floor < s.k.zetaG {
		s.k.buildG(context.Background(), floor)
	}
	k := s.k
	return &k
}

// PatchRows refreshes G and the row extrema after the underlying matrix
// mutated on the rows (and, unless rowsOnly, columns) of the dirty nodes.
// Callers serialize PatchRows against range scans (the session layer
// holds its write lock across repairs).
func (s *ZetaScanState) PatchRows(dirty []int, rowsOnly bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := &s.k
	if k.n < 3 || len(dirty) == 0 {
		return
	}
	s.seed = 0 // the seed triplets may have changed
	n, t := k.n, 1/k.zetaG
	mask := dirtyNodeMask(n, dirty)
	var wide atomic.Bool
	par.ForChunked(n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			if rowsOnly && !mask[x] {
				continue // a clean row and its extrema are untouched
			}
			fX := k.m.row(x)
			if k.g != nil {
				gX, ok := k.g[x*n:(x+1)*n], true
				if mask[x] {
					k.gMax[x], k.gMin[x], ok = gRow(gX, fX, x, t)
				} else {
					for _, j := range dirty {
						var in bool
						gX[j], in = gEntry(fX[j], t)
						ok = ok && in
					}
					k.gMax[x], k.gMin[x] = offDiagExtrema(gX, x)
				}
				if !ok {
					wide.Store(true)
				}
			}
			hi, lo := offDiagExtrema(fX, x)
			k.lnMax[x], k.lnMin[x] = math.Log(hi), math.Log(lo)
		}
	})
	if wide.Load() {
		k.dropG()
	}
}

// MaxRange returns the larger of the state's seed value and the exact ζ
// maximum over the ordered triplets whose first index lies in [xlo, xhi) —
// the shard-sized partial reduction. The seed is a value the space
// attains, so the max-merge over a row partition equals the full scan,
// and starting there keeps the linear screen on from the first row. The
// scan runs on the calling goroutine (one shard = one goroutine;
// parallelism comes from the number of shards), or with pool over
// (x, partner)-tiles on the shared worker pool, and polls ctx per row.
// sym certifies exact decay symmetry: the y-loop then starts at x+1,
// halving the triplet set exactly as ZetaTol does.
func (s *ZetaScanState) MaxRange(ctx context.Context, xlo, xhi int, sym, pool bool) (float64, error) {
	if s.k.n < 3 || xlo >= xhi {
		return DefaultZetaFloor, ctx.Err()
	}
	k, seed, err := s.maxKernel(ctx)
	if err != nil {
		return 0, err
	}
	return scanMax(ctx, k, xlo, xhi, sym, seed, pool)
}

// CollectRange returns every ordered triplet with first index in
// [xlo, xhi) whose ζ exceeds floor — the shard-sized band-collection phase.
// Concatenating the ranges of a partition yields exactly the candidate set
// a full collection pass produces (order aside, which no consumer depends
// on). ctx is polled per row; pool spreads the rows over the shared
// worker pool.
func (s *ZetaScanState) CollectRange(ctx context.Context, xlo, xhi int, floor float64, pool bool) ([]BandTriplet, error) {
	if s.k.n < 3 {
		return nil, ctx.Err()
	}
	return scanBand(ctx, s.bandKernel(floor), xlo, xhi, floor, collectRow, pool)
}

// RepairRange re-scans the triplets with first index in [xlo, xhi) whose
// value the mutation may have changed, after PatchRows, returning those
// above floor — the shard-sized repair phase. mask must be the dirty-node
// membership mask (len n). A ζ triplet (x, y, z) reads rows x and z only,
// so when rowsOnly declares that only the dirty rows changed, a clean row
// x rescans just its dirty-z pairs and skips the (x, y ∈ M, z ∉ M) slice,
// whose values are unchanged; otherwise every dirty-incident triplet is
// rescanned. Dirty rows always rescan in full.
func (s *ZetaScanState) RepairRange(ctx context.Context, xlo, xhi int, dirty []int, mask []bool, rowsOnly bool, floor float64, pool bool) ([]BandTriplet, error) {
	if s.k.n < 3 {
		return nil, ctx.Err()
	}
	return scanBand(ctx, s.bandKernel(floor), xlo, xhi, floor, repairRow(dirty, mask, rowsOnly), pool)
}

// zetaKernel is what the ζ pair kernel reads: the decays — a *Matrix read
// in place, or a Space whose rows are copied (through a RowPager, Row or
// F) and whose single entries come from F — the row extrema of ln f, and
// the linear screen's G = f^(1/ζ_G) with its row extrema.
type zetaKernel struct {
	n   int
	tol float64
	mul float64 // 1+δ, δ = zetaScreenMargin(tol)
	m   *Matrix // nil: read sp
	sp  Space

	lnMax, lnMin []float64 // per-row off-diagonal extrema of ln f
	zetaG        float64   // G's ζ; +Inf without G
	g            []float64 // G, row-major with zero diagonal; nil without G
	gPages       *RowPager // or G's rows paged for the kernel's one run
	gMax, gMin   []float64 // per-row off-diagonal extrema of G; zero without G
	zero         []float64 // n zeros: G's rows without G, which screen nothing
}

// newZetaKernel solves the seed triplets of sp (read in place when it is a
// *Matrix) on the pool, recording the row extrema of ln f on the way, and
// returns the kernel, still without G (see buildG), and the seed value.
func newZetaKernel(ctx context.Context, sp Space, tol float64) (*zetaKernel, float64, error) {
	k := baseZetaKernel(sp, tol)
	k.lnMax, k.lnMin = make([]float64, k.n), make([]float64, k.n)
	if k.n < 3 {
		return k, DefaultZetaFloor, ctx.Err() // no triplets to seed from
	}
	seed, err := k.seed(ctx, true)
	return k, seed, err
}

// baseZetaKernel is a kernel over sp without G or row extrema.
func baseZetaKernel(sp Space, tol float64) *zetaKernel {
	k := &zetaKernel{n: sp.N(), tol: tol, mul: 1 + zetaScreenMargin(tol), sp: sp}
	k.m, _ = sp.(*Matrix)
	k.zero = make([]float64, k.n)
	k.dropG()
	return k
}

// dropG switches the linear screen off.
func (k *zetaKernel) dropG() {
	k.g, k.gMax, k.gMin, k.zetaG = nil, k.zero, k.zero, math.Inf(1)
}

// buf returns a row buffer, or nil when rows are read in place.
func (k *zetaKernel) buf() []float64 {
	if k.m != nil {
		return nil
	}
	return make([]float64, k.n)
}

// row returns row i of the decays: in place from a *Matrix, else copied
// into buf through Row or F.
func (k *zetaKernel) row(i int, buf []float64) []float64 {
	if k.m != nil {
		return k.m.row(i)
	}
	if rs, ok := k.sp.(RowSpace); ok {
		rs.Row(i, buf)
		return buf
	}
	for j := range buf {
		buf[j] = k.sp.F(i, j)
	}
	return buf
}

// at returns f(i, j).
func (k *zetaKernel) at(i, j int) float64 {
	if k.m != nil {
		return k.m.f[i*k.n+j]
	}
	return k.sp.F(i, j)
}

// buildG builds G = f^(1/ζ_G) and its row extrema in fresh buffers (ctx is
// polled per row). An exponent of G past ±maxScreenExp would leave the
// normal float64 range: the kernel then has no G.
func (k *zetaKernel) buildG(ctx context.Context, zetaG float64) error {
	n, t := k.n, 1/zetaG
	g := make([]float64, n*n)
	gMax, gMin := make([]float64, n), make([]float64, n)
	var wide atomic.Bool
	err := par.ForChunkedCtx(ctx, n, func(lo, hi int) {
		buf := k.buf()
		for i := lo; i < hi && ctx.Err() == nil && !wide.Load(); i++ {
			var ok bool
			gMax[i], gMin[i], ok = gRow(g[i*n:(i+1)*n], k.row(i, buf), i, t)
			if !ok {
				wide.Store(true)
			}
		}
	})
	if err != nil || wide.Load() {
		k.dropG()
		return err
	}
	k.g, k.gMax, k.gMin, k.zetaG = g, gMax, gMin, zetaG
	return nil
}

// pageG gives a kernel for one streamed run a G at zetaG whose rows rs
// pages through a RowPager, transformed as their tiles load, and its row
// extrema from fMax and fMin (G is increasing in f). It reports false,
// leaving the kernel without G, when some exponent of G could come within
// one of ±maxScreenExp.
func (k *zetaKernel) pageG(rs RowSpace, tileRows, maxTiles int, fMax, fMin []float64, zetaG float64) bool {
	t := 1 / zetaG
	gMax, gMin := make([]float64, k.n), make([]float64, k.n)
	for i := range gMax {
		hi, lo := t*math.Log2(fMax[i]), t*math.Log2(fMin[i])
		if !(math.Abs(hi) < maxScreenExp-1 && math.Abs(lo) < maxScreenExp-1) {
			return false
		}
		gMax[i], gMin[i] = math.Exp2(hi), math.Exp2(lo)
	}
	k.gPages = NewRowPager(rs, tileRows, maxTiles, func(i int, row []float64) { gRow(row, row, i, t) })
	k.gMax, k.gMin, k.zetaG = gMax, gMin, zetaG
	return true
}

// gEntry returns f^t as math.Exp2(t·math.Log2 f), and false when the
// exponent lies past ±maxScreenExp.
func gEntry(f, t float64) (float64, bool) {
	y := t * math.Log2(f)
	if !(math.Abs(y) <= maxScreenExp) {
		return 1, false
	}
	return math.Exp2(y), true
}

// gRow fills out with G's row i from the decay row f at exponent t,
// returns the row's off-diagonal extrema and reports whether every
// exponent stayed in range.
func gRow(out, f []float64, i int, t float64) (hi, lo float64, ok bool) {
	hi, lo, ok = math.Inf(-1), math.Inf(1), true
	for j, v := range f {
		if j == i {
			out[j] = 0
			continue
		}
		g, in := gEntry(v, t)
		out[j], ok = g, ok && in
		if g > hi {
			hi = g
		}
		if g < lo {
			lo = g
		}
	}
	return hi, lo, ok
}

// seed returns seedRows over every row, on the pool.
func (k *zetaKernel) seed(ctx context.Context, ext bool) (float64, error) {
	best := newSharedMax(DefaultZetaFloor)
	err := par.ForChunkedCtx(ctx, k.n, func(lo, hi int) { best.raise(k.seedRows(lo, hi, ext)) })
	return best.load(), err
}

// seedRows returns the largest solved ζ over two real triplets per row x
// in [lo, hi), and at least DefaultZetaFloor: a value the scan of those
// rows attains, so a max run over them can start at it. The first triplet
// pairs x with its farthest node y (largest f(x,y)) and the relay z that
// minimizes max(f(x,z), f(y,z)); the second pairs x with its nearest node
// z (smallest f(x,z)) and the y that maximizes f(x,y)/max(f(x,z), f(z,y)).
// O((hi−lo)·n) work over contiguous rows. With ext it also records the
// rows' ln f extrema.
func (k *zetaKernel) seedRows(lo, hi int, ext bool) float64 {
	bufX, bufY, bufZ := k.buf(), k.buf(), k.buf()
	solve := func(x, y, z int) float64 {
		return zetaTriplet(math.Log(k.at(x, y)), math.Log(k.at(x, z)), math.Log(k.at(z, y)), k.tol)
	}
	best := DefaultZetaFloor
	for x := lo; x < hi; x++ {
		fX := k.row(x, bufX)
		far, near := farNear(fX, x)
		if ext {
			k.lnMax[x], k.lnMin[x] = math.Log(fX[far]), math.Log(fX[near])
		}
		// One pass picks the relay for the farthest pair, chosen on
		// f(y,z) (equal to f(z,y) on symmetric spaces, and a contiguous
		// row either way), and the target for the nearest relay, which
		// maximizes f(x,y)/max(f(x,z), f(z,y)) without dividing.
		fY, fZ := k.row(far, bufY), k.row(near, bufZ)
		fxz := fX[near]
		relay, worst := -1, math.Inf(1)
		target, num, den := -1, 0.0, 1.0
		for j, v := range fX {
			if j == x {
				continue
			}
			if w := max(v, fY[j]); w < worst && j != far {
				relay, worst = j, w
			}
			if w := max(fxz, fZ[j]); v*den > num*w && j != near {
				target, num, den = j, v, w
			}
		}
		best = max(best, solve(x, far, relay), solve(x, target, near))
	}
	return best
}

// newRun starts a ζ run at bound, reading rows from pager when one is set.
func (k *zetaKernel) newRun(bound float64, collect bool, pager *RowPager) scanRun {
	r := &zetaRun{zetaKernel: k, collect: collect, pager: pager}
	if pager != nil {
		r.pin = make([]float64, k.n)
	}
	if k.gPages != nil {
		r.gPin = make([]float64, k.n)
	}
	r.setBound(bound)
	return r
}

func (k *zetaKernel) size() int { return k.n }

// zetaRun is one run of the ζ pair kernel: it keeps the triplets whose
// solved ζ exceeds bound.
type zetaRun struct {
	*zetaKernel
	collect bool // band mode: the bound is fixed and kept triplets go to band
	band    []BandTriplet
	bound   float64
	t       float64   // (1+δ)/bound, the exp screen's exponent
	gmul    float64   // 1+δ while ζ_G ≤ bound; +Inf makes the linear screen skip nothing
	pager   *RowPager // streamed rows; pin and gPin hold row x across z-row faults
	pin     []float64
	gPin    []float64

	x      int
	fX, gX []float64 // row x of f (nil: entries through F) and of G
}

func (r *zetaRun) setBound(b float64) {
	r.bound, r.t, r.gmul = b, r.mul/b, math.Inf(1)
	if r.zetaG <= b {
		r.gmul = r.mul
	}
}

func (r *zetaRun) raise(v float64) {
	if v > r.bound {
		r.setBound(v)
	}
}

func (r *zetaRun) result() (float64, []BandTriplet) { return r.bound, r.band }

// rowOf returns row i of f: in place, from the pager (pinned: copied into
// pin), or nil when entries come through F.
func (r *zetaRun) rowOf(i int, pin bool) []float64 {
	switch {
	case r.m != nil:
		return r.m.row(i)
	case r.pager == nil:
		return nil
	case pin:
		copy(r.pin, r.pager.Row(i))
		return r.pin
	}
	return r.pager.Row(i)
}

// gRowOf returns row i of G — in place, or paged (pinned: copied into
// gPin) — and zeros without G.
func (r *zetaRun) gRowOf(i int, pin bool) []float64 {
	switch {
	case r.g != nil:
		return r.g[i*r.n : (i+1)*r.n]
	case r.gPages == nil:
		return r.zero
	case pin:
		copy(r.gPin, r.gPages.Row(i))
		return r.gPin
	}
	return r.gPages.Row(i)
}

// f returns f(i, j) from row i when it is held, else through F.
func (r *zetaRun) f(row []float64, i, j int) float64 {
	if row != nil {
		return row[j]
	}
	return r.sp.F(i, j)
}

func (r *zetaRun) beginRow(x int) {
	r.x, r.fX, r.gX = x, r.rowOf(x, true), r.gRowOf(x, true)
}

// keeps reports whether the pair (x, z), x the current row, survives the
// linear pair prune. hiG bounds G[x,y] from above over the pair's y.
func (r *zetaRun) keeps(z int, hiG float64) bool {
	return !(hiG*r.gmul <= r.gX[z]+r.gMin[z])
}

// pair runs the ζ pair kernel on a pair (x, z) that keeps survived, x the
// current row: it solves every triplet (x, y, z) — y ≥ yStart, or y in ys
// when ys is set — that no screen discharges, and keeps those whose ζ
// exceeds the bound. hiLn bounds ln f(x,y) over those y from above.
//
// Every screen skips a triplet only when its solved ζ lies below the
// bound. The linear screen, G[x,y]·(1+δ) ≤ G[x,z] + G[z,y], is sound while
// ζ_G ≤ bound (see ZetaTolCtx); the exp screen tests the inequality at
// ζ = bound/(1+δ), where a satisfied triplet's true ζ is at most that and
// its solved value, within the solver's relative error tol < δ, below the
// bound; and a ≤ max(b, c) solves to the floor. The two pair prunes (keeps
// and the first test here) apply the linear and the exp screen to the
// strongest triplet the pair can field — the largest G[x,y] and f(x,y)
// against the smallest G[z,y] and f(z,y) — which, if it is skipped, takes
// every y with it.
func (r *zetaRun) pair(z, yStart int, ys []int, hiLn float64) {
	x, gX := r.x, r.gX
	gxz := gX[z]
	b := math.Log(r.f(r.fX, x, z)) // ln f(x,z)
	if math.Exp((b-hiLn)*r.t)+math.Exp((r.lnMin[z]-hiLn)*r.t) >= 1 {
		return
	}
	fZ, gZ := r.rowOf(z, false), r.gRowOf(z, false)
	if ys != nil {
		for _, y := range ys {
			if !(gX[y]*r.gmul <= gxz+gZ[y]) {
				r.solve(y, z, b, fZ)
			}
		}
		return
	}
	// A raised bound can only switch the linear screen on, so the copy of
	// gmul stays sound for the whole loop. The linear screen comes first:
	// it rejects nearly every triplet, so its branch predicts well.
	mul, gXs := r.gmul, gX[yStart:r.n]
	gZs := gZ[yStart:r.n][:len(gXs)]
	for i, g := range gXs {
		if g*mul <= gxz+gZs[i] {
			continue
		}
		if y := yStart + i; y != x && y != z {
			r.solve(y, z, b, fZ)
		}
	}
}

// solve keeps the triplet (x, y, z), b = ln f(x,z), when its solved ζ
// exceeds the bound (see pair for the tests that skip it).
func (r *zetaRun) solve(y, z int, b float64, fZ []float64) {
	a := math.Log(r.f(r.fX, r.x, y)) // ln f(x,y)
	if a <= b {
		return
	}
	c := math.Log(r.f(fZ, z, y)) // ln f(z,y)
	if a <= c || math.Exp((b-a)*r.t)+math.Exp((c-a)*r.t) >= 1 {
		return
	}
	switch zt := zetaTriplet(a, b, c, r.tol); {
	case zt <= r.bound:
	case r.collect:
		r.band = append(r.band, BandTriplet{zt, int32(r.x), int32(y), int32(z)})
	default:
		r.setBound(zt)
	}
}

// maxRow runs the pairs (x, z) for z in [lo, hi); y > x only when sym.
func (r *zetaRun) maxRow(x, lo, hi int, sym bool) {
	r.beginRow(x)
	yStart := 0
	if sym {
		yStart = x + 1 // (x,y) and (y,x) triplets coincide
	}
	hiG, hiLn := r.gMax[x], r.lnMax[x]
	for z := lo; z < hi; z++ {
		if z != x && r.keeps(z, hiG) {
			r.pair(z, yStart, nil, hiLn)
		}
	}
}

func (r *zetaRun) collectRow(x int) { r.maxRow(x, 0, r.n, false) }

// repairRow collects row x's triplets whose value the mutation of the
// dirty nodes may have changed (see RepairRange).
func (r *zetaRun) repairRow(x int, dirty []int, mask []bool, rowsOnly bool) {
	if mask[x] {
		r.collectRow(x) // every triplet of a dirty row changed
		return
	}
	r.beginRow(x)
	for _, z := range dirty {
		if r.keeps(z, r.gMax[x]) {
			r.pair(z, 0, nil, r.lnMax[x])
		}
	}
	if rowsOnly {
		return // rows x and z ∉ M are untouched
	}
	// The (x, y ∈ M, z ∉ M) slice, pruned on the dirty y's extrema.
	hiG, hiF := 0.0, 0.0
	for _, y := range dirty {
		hiG, hiF = max(hiG, r.gX[y]), max(hiF, r.f(r.fX, x, y))
	}
	hiLn := math.Log(hiF)
	for z := 0; z < r.n; z++ {
		if z != x && !mask[z] && r.keeps(z, hiG) {
			r.pair(z, 0, dirty, hiLn)
		}
	}
}

// VarphiScanState is the ϕ scan replica: the row extrema the ϕ pair kernel
// reads beside the Matrix, with the same range scans as ZetaScanState.
type VarphiScanState struct {
	k varphiKernel
}

// NewVarphiScanState derives the row extrema of m for ϕ range scans.
func NewVarphiScanState(m *Matrix) *VarphiScanState {
	n := m.N()
	s := &VarphiScanState{k: varphiKernel{n: n, m: m, fMax: make([]float64, n), fMin: make([]float64, n)}}
	par.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.k.fMax[i], s.k.fMin[i] = offDiagExtrema(m.row(i), i)
		}
	})
	return s
}

// N returns the number of nodes scanned.
func (s *VarphiScanState) N() int { return s.k.n }

// PatchRows refreshes the extrema after the matrix mutated on the dirty
// nodes' rows (and columns, unless rowsOnly). The matrix itself is read
// live, so only the derived bounds need repair.
func (s *VarphiScanState) PatchRows(dirty []int, rowsOnly bool) {
	k := &s.k
	if k.n < 3 || len(dirty) == 0 {
		return
	}
	mask := dirtyNodeMask(k.n, dirty)
	par.ForChunked(k.n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			if !rowsOnly || mask[x] { // a column rewrite reaches every row
				k.fMax[x], k.fMin[x] = offDiagExtrema(k.m.row(x), x)
			}
		}
	})
}

// MaxRange returns the exact ϕ maximum over triplets with first index in
// [xlo, xhi) — ϕ's shard-sized partial reduction (see
// ZetaScanState.MaxRange). sym halves the scan on exactly symmetric spaces
// (z starts at x+1, as in Varphi).
func (s *VarphiScanState) MaxRange(ctx context.Context, xlo, xhi int, sym, pool bool) (float64, error) {
	if s.k.n < 3 || xlo >= xhi {
		return VarphiFloor, ctx.Err()
	}
	return scanMax(ctx, &s.k, xlo, xhi, sym, VarphiFloor, pool)
}

// CollectRange returns every triplet with first index in [xlo, xhi) whose
// ϕ ratio exceeds floor (see ZetaScanState.CollectRange).
func (s *VarphiScanState) CollectRange(ctx context.Context, xlo, xhi int, floor float64, pool bool) ([]BandTriplet, error) {
	if s.k.n < 3 {
		return nil, ctx.Err()
	}
	return scanBand(ctx, &s.k, xlo, xhi, floor, collectRow, pool)
}

// RepairRange re-scans the ϕ triplets with first index in [xlo, xhi)
// whose value the mutation may have changed, returning those above floor
// (see ZetaScanState.RepairRange). A ϕ triplet (x, y, z) reads rows x and
// y only, so under rowsOnly a clean row x rescans just its dirty-y pairs
// and skips the (x, y ∉ M, z ∈ M) slice.
func (s *VarphiScanState) RepairRange(ctx context.Context, xlo, xhi int, dirty []int, mask []bool, rowsOnly bool, floor float64, pool bool) ([]BandTriplet, error) {
	if s.k.n < 3 {
		return nil, ctx.Err()
	}
	return scanBand(ctx, &s.k, xlo, xhi, floor, repairRow(dirty, mask, rowsOnly), pool)
}

// varphiKernel is what the ϕ pair kernel reads: the decays (a *Matrix, or
// rows through a RowPager) and their per-row off-diagonal extrema.
type varphiKernel struct {
	n          int
	m          *Matrix // nil: rows from the run's pager
	fMax, fMin []float64
}

// varphiMargin is the relative slack of ϕ's pair prune: it covers the
// rounding of the prune's own sum and products and of every ratio it
// discharges, a few units in the last place.
const varphiMargin = 1 + 1e-12

func (k *varphiKernel) size() int { return k.n }

func (k *varphiKernel) newRun(bound float64, collect bool, pager *RowPager) scanRun {
	r := &varphiRun{varphiKernel: k, collect: collect, bound: bound, pager: pager}
	if pager != nil {
		r.pin = make([]float64, k.n)
	}
	return r
}

// varphiRun is one run of the ϕ pair kernel: it keeps the triplets whose
// ratio f(x,z)/(f(x,y) + f(y,z)) exceeds bound.
type varphiRun struct {
	*varphiKernel
	collect bool
	band    []BandTriplet
	bound   float64
	pager   *RowPager
	pin     []float64

	x  int
	fX []float64
}

func (r *varphiRun) raise(v float64) { r.bound = max(r.bound, v) }

func (r *varphiRun) result() (float64, []BandTriplet) { return r.bound, r.band }

func (r *varphiRun) rowOf(i int, pin bool) []float64 {
	switch {
	case r.m != nil:
		return r.m.row(i)
	case pin:
		copy(r.pin, r.pager.Row(i))
		return r.pin
	}
	return r.pager.Row(i)
}

// keeps reports whether the pair (x, y), x the current row, survives the
// pair prune: even hiX, an upper bound on f(x,z) over the pair's z, over
// the smallest denominator f(x,y) + min f(y,·) must reach the bound by
// varphiMargin.
func (r *varphiRun) keeps(y int, hiX float64) bool {
	return hiX*varphiMargin > r.bound*(r.fX[y]+r.fMin[y])
}

// pair runs the ϕ pair kernel on a pair (x, y) that keeps survived, x the
// current row: it keeps every ratio f(x,z)/(f(x,y) + f(y,z)) — z ≥ zStart,
// or z in zs when zs is set — above the bound.
func (r *varphiRun) pair(y, zStart int, zs []int) {
	x, fX := r.x, r.fX
	fxy := fX[y]
	fY := r.rowOf(y, false)
	if zs != nil {
		for _, z := range zs {
			r.keep(fX[z]/(fxy+fY[z]), y, z)
		}
		return
	}
	// f(x,x) = 0 makes z = x's ratio 0, below any bound; z = y's ratio,
	// f(x,y)/f(x,y) = 1, is dropped where it exceeds the bound.
	bound, fXs := r.bound, fX[zStart:r.n]
	fYs := fY[zStart:r.n][:len(fXs)]
	for i, fxz := range fXs {
		if v := fxz / (fxy + fYs[i]); v > bound {
			if z := zStart + i; z != x && z != y {
				r.keep(v, y, z)
				bound = r.bound
			}
		}
	}
}

func (r *varphiRun) keep(v float64, y, z int) {
	switch {
	case v <= r.bound:
	case r.collect:
		r.band = append(r.band, BandTriplet{v, int32(r.x), int32(y), int32(z)})
	default:
		r.bound = v
	}
}

// maxRow runs the pairs (x, y) for y in [lo, hi); z > x only when sym.
func (r *varphiRun) maxRow(x, lo, hi int, sym bool) {
	r.x, r.fX = x, r.rowOf(x, true)
	zStart := 0
	if sym {
		zStart = x + 1 // (x,·,z) and (z,·,x) ratios coincide
	}
	hiX := r.fMax[x]
	for y := lo; y < hi; y++ {
		if y != x && r.keeps(y, hiX) {
			r.pair(y, zStart, nil)
		}
	}
}

func (r *varphiRun) collectRow(x int) { r.maxRow(x, 0, r.n, false) }

// repairRow collects row x's ϕ triplets whose value the mutation of the
// dirty nodes may have changed (see VarphiScanState.RepairRange).
func (r *varphiRun) repairRow(x int, dirty []int, mask []bool, rowsOnly bool) {
	if mask[x] {
		r.collectRow(x)
		return
	}
	r.x, r.fX = x, r.rowOf(x, true)
	for _, y := range dirty {
		if r.keeps(y, r.fMax[x]) {
			r.pair(y, 0, nil)
		}
	}
	if rowsOnly {
		return // rows x and y ∉ M are untouched
	}
	// The (x, y ∉ M, z ∈ M) slice, pruned on the dirty z's largest f(x,z).
	hi := 0.0
	for _, z := range dirty {
		hi = max(hi, r.fX[z])
	}
	for y := 0; y < r.n; y++ {
		if y != x && !mask[y] && r.keeps(y, hi) {
			r.pair(y, 0, dirty)
		}
	}
}

// scanKernel is a ζ or ϕ kernel as the scan loops below see it.
type scanKernel interface {
	size() int
	newRun(bound float64, collect bool, pager *RowPager) scanRun
}

// scanRun is one run of a pair kernel.
type scanRun interface {
	maxRow(x, lo, hi int, sym bool)
	collectRow(x int)
	repairRow(x int, dirty []int, mask []bool, rowsOnly bool)
	raise(v float64)
	result() (bound float64, band []BandTriplet)
}

// collectRow is the band-collection row body.
func collectRow(r scanRun, x int) { r.collectRow(x) }

// repairRow returns the repair row body for a mutation of the dirty nodes.
func repairRow(dirty []int, mask []bool, rowsOnly bool) func(scanRun, int) {
	return func(r scanRun, x int) { r.repairRow(x, dirty, mask, rowsOnly) }
}

// maxRows raises r over the rows [xlo, xhi) against the partners [lo, hi).
// shared, when set, is the running maximum of concurrent runs: adopted
// before and raised after each row.
func maxRows(ctx context.Context, r scanRun, xlo, xhi, lo, hi int, sym bool, shared *sharedMax) error {
	for x := xlo; x < xhi; x++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if shared != nil {
			r.raise(shared.load())
		}
		r.maxRow(x, lo, hi, sym)
		if shared != nil {
			v, _ := r.result()
			shared.raise(v)
		}
	}
	return nil
}

// maxRange returns the maximum of start, which the scan must attain or
// be a floor, and the triplets with first index in [xlo, xhi) — serially,
// blocked over the partner index as the pool scans are.
func maxRange(ctx context.Context, k scanKernel, xlo, xhi int, sym bool, start float64, pager *RowPager) (float64, error) {
	n := k.size()
	r := k.newRun(start, false, pager)
	tile := tripletTile(n)
	if tile <= 0 {
		tile = n
	}
	for lo := 0; lo < n; lo += tile {
		if err := maxRows(ctx, r, xlo, xhi, lo, min(lo+tile, n), sym, nil); err != nil {
			return 0, err
		}
	}
	v, _ := r.result()
	return v, nil
}

// poolMax returns the maximum of start, which the scan must attain, and
// the triplets with first index in [xlo, xhi), over (x, partner)-tiles on
// the pool.
func poolMax(ctx context.Context, k scanKernel, xlo, xhi int, start float64, sym bool) (float64, error) {
	n := k.size()
	best := newSharedMax(start)
	err := par.ForTilesRectCtx(ctx, xlo, xhi, 0, n, tripletTile(n), func(xlo, xhi, lo, hi int) {
		maxRows(ctx, k.newRun(best.load(), false, nil), xlo, xhi, lo, hi, sym, best)
	})
	if err != nil {
		return 0, err
	}
	return best.load(), nil
}

// scanMax is maxRange (without a pager) or, with pool, poolMax.
func scanMax(ctx context.Context, k scanKernel, xlo, xhi int, sym bool, start float64, pool bool) (float64, error) {
	if pool {
		return poolMax(ctx, k, xlo, xhi, start, sym)
	}
	return maxRange(ctx, k, xlo, xhi, sym, start, nil)
}

// bandRange runs row over the rows [xlo, xhi) on one band run at floor and
// returns its band. ctx is polled per row.
func bandRange(ctx context.Context, k scanKernel, xlo, xhi int, floor float64, row func(scanRun, int)) ([]BandTriplet, error) {
	r := k.newRun(floor, true, nil)
	for x := xlo; x < xhi; x++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row(r, x)
	}
	_, band := r.result()
	return band, nil
}

// scanBand is bandRange or, with pool, bandRange over chunks of the rows
// on the pool.
func scanBand(ctx context.Context, k scanKernel, xlo, xhi int, floor float64, row func(scanRun, int), pool bool) ([]BandTriplet, error) {
	if !pool {
		return bandRange(ctx, k, xlo, xhi, floor, row)
	}
	var (
		mu   sync.Mutex
		band []BandTriplet
	)
	err := par.ForChunkedCtx(ctx, xhi-xlo, func(lo, hi int) {
		part, _ := bandRange(ctx, k, xlo+lo, xlo+hi, floor, row)
		mu.Lock()
		band = append(band, part...)
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	return band, nil
}

// sharedMax is a running float64 maximum shared by concurrent runs.
type sharedMax struct{ bits atomic.Uint64 }

func newSharedMax(v float64) *sharedMax {
	s := &sharedMax{}
	s.bits.Store(math.Float64bits(v))
	return s
}

func (s *sharedMax) load() float64 { return math.Float64frombits(s.bits.Load()) }

// raise lifts the maximum to v if v is larger.
func (s *sharedMax) raise(v float64) {
	for {
		old := s.bits.Load()
		if math.Float64frombits(old) >= v || s.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// offDiagExtrema returns the largest and smallest entry of row i off the
// diagonal.
func offDiagExtrema(row []float64, i int) (hi, lo float64) {
	hi, lo = math.Inf(-1), math.Inf(1)
	for j, v := range row {
		if j == i {
			continue
		}
		if v > hi {
			hi = v
		}
		if v < lo {
			lo = v
		}
	}
	return hi, lo
}

// farNear returns the columns of row i's largest and smallest entry off
// the diagonal (the first of any ties).
func farNear(row []float64, i int) (far, near int) {
	far, near = -1, -1
	for j, v := range row {
		if j == i {
			continue
		}
		if far < 0 || v > row[far] {
			far = j
		}
		if near < 0 || v < row[near] {
			near = j
		}
	}
	return far, near
}

// dirtyNodeMask builds the dirty-node membership mask the repair scans
// consume.
func dirtyNodeMask(n int, dirty []int) []bool {
	mask := make([]bool, n)
	for _, r := range dirty {
		mask[r] = true
	}
	return mask
}
