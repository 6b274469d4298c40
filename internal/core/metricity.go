package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"

	"decaynet/internal/par"
)

// DefaultZetaFloor is the value Zeta reports for spaces in which every
// triplet satisfies the triangle inequality at all exponents (e.g. n < 3).
// Any ζ > 0 would do; 1 makes the induced quasi-distance equal the decay.
const DefaultZetaFloor = 1.0

// Zeta computes the metricity ζ(D) of Def 2.2: the smallest ζ such that
//
//	f(x,y)^(1/ζ) ≤ f(x,z)^(1/ζ) + f(z,y)^(1/ζ)
//
// for every ordered triplet of distinct nodes. Exact up to bisection
// tolerance; O(n³) triplets. The result is never below DefaultZetaFloor.
func Zeta(d Space) float64 {
	return ZetaTol(d, 1e-12)
}

// ZetaTol is Zeta with an explicit relative bisection tolerance (used by the
// bisection-tolerance ablation).
//
// The scan is batch-first and cache-blocked: the O(n³) triplet loop runs as
// (x,z)-tile kernels on the shared worker pool (par.ForTiles) over the
// dense decay rows, so each row is streamed O(n/tile) times instead of
// O(n). Almost every triplet is discharged by a linear-domain screen that
// needs no exp or log (see ZetaTolCtx); the few survivors go through the
// exp screen at the running maximum and then the bisection. Spaces
// certifying exact symmetry through the Symmetric marker scan only ordered
// pairs x < y, halving the triplet set (ζ is invariant under swapping the
// endpoints when f is symmetric). The result equals the per-pair reference
// up to bisection tolerance.
func ZetaTol(d Space, tol float64) float64 {
	z, _ := ZetaTolCtx(context.Background(), d, tol)
	return z
}

// ZetaTolCtx is ZetaTol with cooperative cancellation: the tile kernels
// poll ctx between x-rows (a row is O(tile·n) work, microseconds even at
// n ≫ 10³), so a cancelled scan returns promptly with ctx.Err() and no
// partial value.
//
// The linear screen rests on the monotonicity of Def. 2.2: a triplet that
// satisfies the inequality at ζ₀ satisfies it at every ζ ≥ ζ₀. The scan
// first solves a fixed set of real triplets (zetaSeed, O(n²)) and sets
// ζ₀ = s/(1+δ), s being their largest solved value; the solver stops
// within a relative error tol < δ, so ζ₀ lies below that triplet's true
// value and hence below ζ. It then builds G = f^t₀ with t₀ = 1/ζ₀ once and
// skips a triplet when
//
//	G[x,y]·(1+δ) ≤ G[x,z] + G[z,y],
//
// and a whole (x,z) row pair when max_y G[x,y]·(1+δ) ≤ G[x,z] + min_y G[z,y].
// With a = ln f(x,y), b = ln f(x,z), c = ln f(z,y), a skip says
// g(t₀) ≥ 1+δ for the slack g(t) = e^((b−a)t) + e^((c−a)t) of zetaTriplet,
// which is convex and decreasing with root t* = 1/ζ_xyz. Convexity gives
// t* − t₀ ≥ δ/|g′(t₀)|, and t₀|g′(t₀)| = Σ u·e^(−u) ≤ 2/e (u = (a−b)t₀ and
// (a−c)t₀), so a skipped triplet has ζ_xyz ≤ ζ₀/(1 + e·δ/2). With
// δ = 3·tol + 1e-9 (zetaScreenMargin), e·δ/2 exceeds the solver's error
// with room to spare, and 1e-9 lies far above the rounding error of G
// (see zetaScreenMargin), so a skipped triplet's solved value stays below ζ₀ — and so does that of
// any triplet whose exp screen sees a lower running maximum because a
// skipped one was never solved. The survivors go through the unchanged exp
// screen and bisection, and the running maximum starts at the floor as
// before, so the result has the bits the scan gives without the linear
// screen, for every tol ≥ 0 (including the ablation's 1e-3; from tol = 1/3
// on, δ ≥ 1 and, since g < 2, nothing is skipped). At coarse tol, ties
// within tol of the maximum leave the last bits to tile scheduling, with
// or without the screen. The screen is the first test in the y-loop: it
// rejects nearly every triplet, so its branch predicts well.
//
// Memory: the scan holds one n×n float64 buffer, G, for its lifetime and
// reads the dense decays in place. A *Matrix is not copied, so its peak is
// that of a scan over a log matrix; any other space is materialized once
// (Dense) next to G, two n×n buffers. Logarithms are taken only for the
// triplets that survive the screen, bit-identical to ln of the row values.
func ZetaTolCtx(ctx context.Context, d Space, tol float64) (float64, error) {
	n := d.N()
	if n < 3 {
		return DefaultZetaFloor, ctx.Err()
	}
	m := Dense(d)
	s, err := newZetaScreen(ctx, m, tol)
	if err != nil {
		return 0, err
	}
	sym := KnownSymmetric(d)
	var bestBits atomic.Uint64
	bestBits.Store(math.Float64bits(DefaultZetaFloor))
	err = par.ForTilesCtx(ctx, n, tripletTile(n), func(xlo, xhi, zlo, zhi int) {
		local := math.Float64frombits(bestBits.Load())
		t := 1 / local
		for x := xlo; x < xhi; x++ {
			if ctx.Err() != nil {
				return
			}
			fX := m.row(x)
			gX := s.g[x*n : (x+1)*n]
			gMaxX := s.gMax[x] * s.mul
			lnMaxX := s.lnMax[x]
			yStart := 0
			if sym {
				yStart = x + 1 // (x,y) and (y,x) triplets coincide
			}
			if g := math.Float64frombits(bestBits.Load()); g > local {
				local = g // adopt other workers' progress for pruning
				t = 1 / local
			}
			for z := zlo; z < zhi; z++ {
				if z == x {
					continue
				}
				// Whole-row prunes: the strongest triplet this (x,z) pair
				// can field combines the largest f(x,y) with the smallest
				// f(z,y). If even that passes the linear screen, or
				// satisfies the inequality at the current best ζ, no y can
				// raise the maximum.
				gxz := gX[z]
				if gMaxX <= gxz+s.gMin[z] {
					continue
				}
				b := math.Log(fX[z]) // ln f(x,z)
				if math.Exp((b-lnMaxX)*t)+math.Exp((s.lnMin[z]-lnMaxX)*t) >= 1 {
					continue
				}
				gZ := s.g[z*n : (z+1)*n]
				fZ := m.row(z)
				for y := yStart; y < n; y++ {
					// The linear screen comes first: it rejects nearly
					// every triplet, so its branch predicts well.
					if gX[y]*s.mul <= gxz+gZ[y] || y == x || y == z {
						continue
					}
					a := math.Log(fX[y]) // ln f(x,y)
					if a <= b {
						continue // right side dominates at every ζ
					}
					c := math.Log(fZ[y]) // ln f(z,y)
					if a <= c {
						continue
					}
					// Satisfied at the current best ζ ⇒ this triplet's ζ
					// cannot raise the maximum; skip the bisection.
					if math.Exp((b-a)*t)+math.Exp((c-a)*t) >= 1 {
						continue
					}
					if zt := zetaTriplet(a, b, c, tol); zt > local {
						local = zt
						t = 1 / local
						storeMax(&bestBits, zt)
					}
				}
			}
		}
		storeMax(&bestBits, local)
	})
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bestBits.Load()), nil
}

// zetaScreen is what the linear screen of ZetaTolCtx reads.
type zetaScreen struct {
	g            []float64 // G = f^t₀, row-major, zero diagonal
	gMax, gMin   []float64 // per-row off-diagonal extrema of G
	lnMax, lnMin []float64 // per-row off-diagonal extrema of ln f
	mul          float64   // 1+δ; +Inf switches the screen off
}

// newZetaScreen derives ζ₀ from zetaSeed and builds G = f^(1/ζ₀) with its
// row extrema (see ZetaTolCtx). ctx is polled per row.
func newZetaScreen(ctx context.Context, m *Matrix, tol float64) (*zetaScreen, error) {
	n := m.n
	s := &zetaScreen{lnMax: make([]float64, n), lnMin: make([]float64, n)}
	seed, err := zetaSeed(ctx, m, tol, s.lnMax, s.lnMin)
	if err != nil {
		return nil, err
	}
	delta := zetaScreenMargin(tol)
	t0 := (1 + delta) / seed // 1/ζ₀
	s.g = make([]float64, n*n)
	s.gMax, s.gMin = make([]float64, n), make([]float64, n)
	var wide atomic.Bool
	err = par.ForChunkedCtx(ctx, n, func(lo, hi int) {
		for i := lo; i < hi && ctx.Err() == nil; i++ {
			out := s.g[i*n : (i+1)*n]
			mx, mn := math.Inf(-1), math.Inf(1)
			for j, v := range m.row(i) {
				if j == i {
					continue
				}
				y := t0 * math.Log2(v)
				if !(math.Abs(y) <= maxScreenExp) {
					wide.Store(true)
					y = 0
				}
				out[j] = math.Exp2(y)
				mx = max(mx, out[j])
				mn = min(mn, out[j])
			}
			s.gMax[i], s.gMin[i] = mx, mn
		}
	})
	if err != nil {
		return nil, err
	}
	s.mul = 1 + delta
	if wide.Load() {
		// A decay below 2^−1000 or above 2^1000 (at t₀ = 1) would leave
		// the normal float64 range in G: switch the screen off.
		s.mul = math.Inf(1)
	}
	return s, nil
}

// maxScreenExp bounds the exponents of G: 2^±1000 are normal float64s.
const maxScreenExp = 1000

// zetaScreenMargin returns δ for the linear screen at bisection tolerance
// tol (see ZetaTolCtx): 3·tol covers the solver's stopping error twice
// over — once for the seed value behind ζ₀, once for a skipped triplet —
// and 1e-9 the error of G (math.Log2 and math.Exp2 within an ulp or two,
// and |t₀·log₂ f| ≤ 1000, so below 1e-12 relative) and of the screen's own
// product and sum.
func zetaScreenMargin(tol float64) float64 {
	return 3*math.Max(tol, 0) + 1e-9
}

// zetaSeed returns the largest zetaTriplet value over two real triplets
// per node x, the basis of the linear screen's ζ₀ (see ZetaTolCtx), and
// fills lnMax[x], lnMin[x] with the logarithms of row x's largest and
// smallest off-diagonal decay. The first triplet pairs x with its farthest
// node y (largest f(x,y)) and the relay z that minimizes
// max(f(x,z), f(y,z)); the second pairs x with its nearest node z
// (smallest f(x,z)) and the y that maximizes f(x,y)/max(f(x,z), f(z,y)).
// O(n²) work over contiguous rows, a logarithm only per candidate.
func zetaSeed(ctx context.Context, m *Matrix, tol float64, lnMax, lnMin []float64) (float64, error) {
	n := m.n
	var bestBits atomic.Uint64
	bestBits.Store(math.Float64bits(DefaultZetaFloor))
	err := par.ForChunkedCtx(ctx, n, func(lo, hi int) {
		best := DefaultZetaFloor
		try := func(x, y, z int) {
			if zt := zetaTriplet(math.Log(m.f[x*n+y]), math.Log(m.f[x*n+z]), math.Log(m.f[z*n+y]), tol); zt > best {
				best = zt
			}
		}
		for x := lo; x < hi && ctx.Err() == nil; x++ {
			fX := m.row(x)
			far, near := -1, -1
			for j, v := range fX {
				if j == x {
					continue
				}
				if far < 0 || v > fX[far] {
					far = j
				}
				if near < 0 || v < fX[near] {
					near = j
				}
			}
			lnMax[x], lnMin[x] = math.Log(fX[far]), math.Log(fX[near])
			// One pass picks the relay for the farthest pair, chosen on
			// f(y,z) (equal to f(z,y) on symmetric spaces, and a contiguous
			// row either way), and the target for the nearest relay, which
			// maximizes f(x,y)/max(f(x,z), f(z,y)) without dividing.
			fY, fZ := m.row(far), m.row(near)
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
			try(x, far, relay)
			try(x, target, near)
		}
		storeMax(&bestBits, best)
	})
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bestBits.Load()), nil
}

// tripletTile returns the (x,z) tile edge for an n-node triplet scan: small
// enough that the ~2·tile decay rows a tile touches stay cache-resident,
// large enough that (n/tile)² tiles amortize pool dispatch. Sub-64-node
// scans run as a single inline block.
func tripletTile(n int) int {
	switch {
	case n >= 256:
		return 64
	case n >= 64:
		return 16
	default:
		return 0
	}
}

// rowExtrema returns, for each row i of an n×n row-major matrix (log
// decays for ZetaTol, raw decays for Varphi), the largest and smallest
// off-diagonal entry. The triplet kernels use them to discharge whole
// row pairs without touching the inner loop. Diagonal entries (ln 0 or 0)
// are skipped.
func rowExtrema(vals []float64, n int) (rowMax, rowMin []float64) {
	rowMax = make([]float64, n)
	rowMin = make([]float64, n)
	par.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := vals[i*n : (i+1)*n]
			mx, mn := math.Inf(-1), math.Inf(1)
			for j, v := range row {
				if j == i {
					continue
				}
				if v > mx {
					mx = v
				}
				if v < mn {
					mn = v
				}
			}
			rowMax[i], rowMin[i] = mx, mn
		}
	})
	return rowMax, rowMin
}

// ZetaPerPair is the pre-batching reference implementation of ZetaTol: one
// virtual F call per matrix element, serial, no pruning. Kept as the
// ground-truth oracle for equivalence tests and as the baseline op in
// cmd/decaybench's perf trajectory.
func ZetaPerPair(d Space, tol float64) float64 {
	n := d.N()
	best := DefaultZetaFloor
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if y == x {
				continue
			}
			a := math.Log(d.F(x, y))
			for z := 0; z < n; z++ {
				if z == x || z == y {
					continue
				}
				zt := zetaTriplet(a, math.Log(d.F(x, z)), math.Log(d.F(z, y)), tol)
				if zt > best {
					best = zt
				}
			}
		}
	}
	return best
}

// logMatrix returns the dense matrix of ln f(i,j), filled row-wise through
// the batch contract in parallel. Diagonal entries are ln 0 = -Inf and are
// skipped by all consumers.
func logMatrix(d Space) []float64 {
	rs := Rows(d)
	n := rs.N()
	logs := make([]float64, n*n)
	par.ForChunked(n, func(lo, hi int) {
		buf := make([]float64, n)
		for i := lo; i < hi; i++ {
			rs.Row(i, buf)
			out := logs[i*n : (i+1)*n]
			for j, v := range buf {
				out[j] = math.Log(v)
			}
		}
	})
	return logs
}

// storeMax raises the float64 packed in bits to v if v is larger.
func storeMax(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// ZetaTriplet returns the smallest ζ at which the triplet with decays
// (fxy, fxz, fzy) satisfies the relaxed triangle inequality, or
// DefaultZetaFloor when every positive ζ works.
func ZetaTriplet(fxy, fxz, fzy float64) float64 {
	return zetaTriplet(math.Log(fxy), math.Log(fxz), math.Log(fzy), 1e-12)
}

// zetaTriplet works on logarithms a = ln f(x,y), b = ln f(x,z),
// c = ln f(z,y). When a ≤ max(b, c) the inequality holds for every ζ > 0
// (the largest term on the right already dominates). Otherwise the
// normalized slack
//
//	g(t) = e^((b−a)t) + e^((c−a)t),  t = 1/ζ
//
// is strictly decreasing and convex from g(0) = 2 towards 0, so the
// constraint g(t) ≥ 1 holds exactly for t ≤ t*, i.e. ζ ≥ 1/t*, with the
// unique root t* found by bracketed Newton iteration (bisecting whenever a
// Newton step would leave the bracket or stops halving it). Quadratic
// convergence makes the root a handful of exp-pair evaluations — this
// function dominates every triplet scan, from the exact tiled kernels to
// the incremental session repairs.
func zetaTriplet(a, b, c float64, tol float64) float64 {
	if a <= b || a <= c {
		return DefaultZetaFloor
	}
	db, dc := b-a, c-a // both strictly negative
	// Bracket the root: g(0) = 2 > 1; at tHi the larger term is 1/2 so
	// g(tHi) ≤ 1.
	worst := db
	if dc > db {
		worst = dc
	}
	tHi := math.Ln2 / -worst
	tLo := 0.0
	t := 0.5 * tHi
	dtOld := tHi
	dt := dtOld
	e1, e2 := math.Exp(db*t), math.Exp(dc*t)
	g := e1 + e2 - 1
	dg := db*e1 + dc*e2
	for i := 0; i < 100; i++ {
		if ((t-tHi)*dg-g)*((t-tLo)*dg-g) > 0 || math.Abs(2*g) > math.Abs(dtOld*dg) {
			dtOld = dt
			dt = 0.5 * (tHi - tLo)
			t = tLo + dt
		} else {
			dtOld = dt
			dt = g / dg
			t -= dt
		}
		if math.Abs(dt) <= tol*t {
			break
		}
		e1, e2 = math.Exp(db*t), math.Exp(dc*t)
		g = e1 + e2 - 1
		dg = db*e1 + dc*e2
		if g > 0 {
			tLo = t
		} else {
			tHi = t
		}
	}
	z := 1 / t
	if z < DefaultZetaFloor {
		return DefaultZetaFloor
	}
	return z
}

// SatisfiesZeta reports whether the space satisfies the relaxed triangle
// inequality at exponent zeta on all ordered triplets, within relative
// tolerance tol. Used as the ground-truth check in tests.
func SatisfiesZeta(d Space, zeta, tol float64) bool {
	if zeta <= 0 {
		return false
	}
	n := d.N()
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if y == x {
				continue
			}
			lhs := math.Pow(d.F(x, y), 1/zeta)
			for z := 0; z < n; z++ {
				if z == x || z == y {
					continue
				}
				rhs := math.Pow(d.F(x, z), 1/zeta) + math.Pow(d.F(z, y), 1/zeta)
				if lhs > rhs*(1+tol) {
					return false
				}
			}
		}
	}
	return true
}

// Varphi computes the variant parameter ϕ of Sec 4.2: the smallest value
// such that f(x,z) ≤ ϕ·(f(x,y) + f(y,z)) for every triplet, i.e.
// max over triplets of f(x,z)/(f(x,y)+f(y,z)). Returns at least 1/2
// (attained when all decays are equal). Requires n ≥ 3; smaller spaces
// return 1/2.
//
// Like ZetaTol, the scan is a cache-blocked (x,y)-tile kernel on the
// shared worker pool: per-row decay extrema discharge whole (x,y) pairs
// whose best possible ratio max_z f(x,z)/(f(x,y)+min_z f(y,z)) cannot beat
// the running maximum, and exactly symmetric spaces scan only x < z (the
// ratio is invariant under swapping the endpoints).
func Varphi(d Space) float64 {
	v, _ := VarphiCtx(context.Background(), d)
	return v
}

// VarphiCtx is Varphi with cooperative cancellation (see ZetaTolCtx): ctx
// is polled between x-rows and a cancelled scan returns ctx.Err() with no
// partial value.
func VarphiCtx(ctx context.Context, d Space) (float64, error) {
	n := d.N()
	if n < 3 {
		return 0.5, ctx.Err()
	}
	m := Dense(d)
	sym := m.Symmetric()
	rowMaxF, rowMinF := rowExtrema(m.f, m.n)
	var bestBits atomic.Uint64
	bestBits.Store(math.Float64bits(0.5))
	err := par.ForTilesCtx(ctx, n, tripletTile(n), func(xlo, xhi, ylo, yhi int) {
		best := math.Float64frombits(bestBits.Load())
		for x := xlo; x < xhi; x++ {
			if ctx.Err() != nil {
				return
			}
			rowX := m.row(x) // f(x,·)
			maxX := rowMaxF[x]
			zStart := 0
			if sym {
				zStart = x + 1 // (x,·,z) and (z,·,x) ratios coincide
			}
			if g := math.Float64frombits(bestBits.Load()); g > best {
				best = g // adopt other workers' progress for pruning
			}
			for y := ylo; y < yhi; y++ {
				if y == x {
					continue
				}
				fxy := rowX[y]
				// Whole-row prune: even the largest numerator over the
				// smallest denominator cannot beat the running maximum.
				if maxX <= best*(fxy+rowMinF[y]) {
					continue
				}
				rowY := m.row(y) // f(y,·)
				for z := zStart; z < n; z++ {
					if z == x || z == y {
						continue
					}
					if r := rowX[z] / (fxy + rowY[z]); r > best {
						best = r
						storeMax(&bestBits, r)
					}
				}
			}
		}
		storeMax(&bestBits, best)
	})
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bestBits.Load()), nil
}

// VarphiPerPair is the serial, per-element reference implementation of
// Varphi: one virtual F call per decay access, no pruning. Kept as the
// ground-truth oracle for equivalence tests and as a baseline op in
// cmd/decaybench's perf trajectory.
func VarphiPerPair(d Space) float64 {
	n := d.N()
	best := 0.5
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if y == x {
				continue
			}
			fxy := d.F(x, y)
			for z := 0; z < n; z++ {
				if z == x || z == y {
					continue
				}
				if r := d.F(x, z) / (fxy + d.F(y, z)); r > best {
					best = r
				}
			}
		}
	}
	return best
}

// Phi returns φ = lg ϕ, the logarithmic form of the variant metricity
// parameter used in the approximability bounds of Sec 4.2. When ϕ < 1
// (very metric-like spaces) Phi is negative; the hardness statements use
// max(φ, 0).
func Phi(d Space) float64 {
	return math.Log2(Varphi(d))
}

// ZetaUpperBound returns the a-priori bound ζ₀ = lg(max f / min f) that the
// paper uses to show ζ is well-defined. It returns an error when the space
// has fewer than two nodes.
func ZetaUpperBound(d Space) (float64, error) {
	if d.N() < 2 {
		return 0, errors.New("core: need at least two nodes")
	}
	lo, hi := DecayRange(d)
	if lo <= 0 {
		return 0, errors.New("core: invalid decays")
	}
	b := math.Log2(hi / lo)
	if b < DefaultZetaFloor {
		return DefaultZetaFloor, nil
	}
	return b, nil
}
