package core

import (
	"context"
	"errors"
	"math"
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
// The scan is batch-first and cache-blocked: the O(n³) triplet loop runs
// the ζ pair kernel (see shardscan.go) over (x,z)-tiles on the shared
// worker pool (par.ForTiles), so each row is streamed O(n/tile) times
// instead of O(n). Almost every triplet is discharged by a linear-domain
// screen that needs no exp or log (see ZetaTolCtx); the few survivors go
// through the exp screen and then the solver. Spaces certifying exact
// symmetry through the Symmetric marker scan only ordered pairs x < y,
// halving the triplet set (ζ is invariant under swapping the endpoints
// when f is symmetric). The result has ZetaPerPair's bits.
func ZetaTol(d Space, tol float64) float64 {
	z, _ := ZetaTolCtx(context.Background(), d, tol)
	return z
}

// ZetaTolCtx is ZetaTol with cooperative cancellation: the tile kernels
// poll ctx between x-rows (a row is O(tile·n) work, microseconds even at
// n ≫ 10³), so a cancelled scan returns promptly with ctx.Err() and no
// partial value.
//
// The scan first solves two real triplets per node (the seed, O(n²)) and
// starts its running maximum at their largest solved value s, which the
// scan attains. Every prune then tests a triplet against the running
// maximum divided by 1+δ, δ = 3·tol + 1e-9 (zetaScreenMargin), so it skips
// only triplets whose solved value lies below the maximum: the result is
// the largest solved value over every triplet, ZetaPerPair's bits, for
// every tol ≥ 0 and every tile schedule.
//
// The linear screen rests on the monotonicity of Def. 2.2: a triplet that
// satisfies the inequality at ζ_G satisfies it at every ζ ≥ ζ_G. The scan
// builds G = f^t_G, t_G = 1/ζ_G with ζ_G = s, once and skips a triplet when
//
//	G[x,y]·(1+δ) ≤ G[x,z] + G[z,y],
//
// and a whole (x,z) row pair when max_y G[x,y]·(1+δ) ≤ G[x,z] + min_y G[z,y].
// With a = ln f(x,y), b = ln f(x,z), c = ln f(z,y), a skip says
// g(t_G) ≥ 1+δ for the slack g(t) = e^((b−a)t) + e^((c−a)t) of zetaTriplet,
// which is convex and decreasing with root t* = 1/ζ_xyz. Convexity gives
// t* − t_G ≥ δ/|g′(t_G)|, and t_G|g′(t_G)| = Σ u·e^(−u) ≤ 2/e (u = (a−b)t_G
// and (a−c)t_G), so a skipped triplet has ζ_xyz ≤ ζ_G/(1 + e·δ/2). e·δ/2
// exceeds the solver's relative error (below tol) with room to spare, and
// 1e-9 lies far above the rounding error of G (see zetaScreenMargin), so a
// skipped triplet solves below ζ_G, which never exceeds the running
// maximum. The exp screen tests the inequality itself at ζ = max/(1+δ). The
// linear screen is the first test in the y-loop: it rejects nearly every
// triplet, so its branch predicts well.
//
// Memory: the scan holds one n×n float64 buffer, G, for its lifetime. A
// *Matrix is read in place; any other space is read row by row to build G
// and entry by entry (F) for the few triplets that survive the screen, so
// no dense copy is made unless G's exponents leave the float64 range and
// the screen is off. Logarithms are taken only for surviving triplets.
func ZetaTolCtx(ctx context.Context, d Space, tol float64) (float64, error) {
	return ZetaTolRangeCtx(ctx, d, tol, 0, d.N(), KnownSymmetric(d))
}

// ZetaTolRangeCtx is ZetaTolCtx over the ordered triplets whose first
// index lies in [xlo, xhi): it returns the larger of the seed and their
// maximum, so the max-merge over a row partition is ZetaTolCtx's value.
// sym certifies exact decay symmetry (y starts at x+1). Like ZetaTolCtx
// it builds G at the seed on the pool and keeps nothing after the scan.
func ZetaTolRangeCtx(ctx context.Context, d Space, tol float64, xlo, xhi int, sym bool) (float64, error) {
	if d.N() < 3 || xlo >= xhi {
		return DefaultZetaFloor, ctx.Err()
	}
	k, seed, err := newZetaKernel(ctx, d, tol)
	if err != nil {
		return 0, err
	}
	if err := k.buildG(ctx, seed); err != nil {
		return 0, err
	}
	if k.g == nil && k.m == nil {
		k.m = Dense(d) // no screen: every surviving triplet reads the rows
	}
	return poolMax(ctx, k, xlo, xhi, seed, sym)
}

// maxScreenExp bounds the exponents of G: 2^±1000 are normal float64s.
const maxScreenExp = 1000

// zetaScreenMargin returns δ for the screens at bisection tolerance tol
// (see ZetaTolCtx): 3·tol covers the solver's stopping error with room to
// spare, and 1e-9 the error of G (math.Log2 and math.Exp2 within an ulp or
// two, and |t_G·log₂ f| ≤ 1000, so below 1e-12 relative), of the exp
// screen's exponentials and of the screens' own products and sums.
func zetaScreenMargin(tol float64) float64 {
	return 3*math.Max(tol, 0) + 1e-9
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
// Like ZetaTol, the scan runs its pair kernel (see shardscan.go) over
// (x,y)-tiles on the shared worker pool: per-row decay extrema discharge
// whole (x,y) pairs whose best possible ratio max_z f(x,z)/(f(x,y) +
// min_z f(y,z)) cannot beat the running maximum, and exactly symmetric
// spaces scan only x < z (the ratio is invariant under swapping the
// endpoints). The result has VarphiPerPair's bits.
func Varphi(d Space) float64 {
	v, _ := VarphiCtx(context.Background(), d)
	return v
}

// VarphiCtx is Varphi with cooperative cancellation (see ZetaTolCtx): ctx
// is polled between x-rows and a cancelled scan returns ctx.Err() with no
// partial value.
func VarphiCtx(ctx context.Context, d Space) (float64, error) {
	if d.N() < 3 {
		return VarphiFloor, ctx.Err()
	}
	m := Dense(d)
	return poolMax(ctx, &NewVarphiScanState(m).k, 0, m.N(), VarphiFloor, m.Symmetric())
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
