package core

import (
	"context"
	"math"
	"sync/atomic"

	"decaynet/internal/par"
	"decaynet/internal/rng"
)

// The sampled metricity estimators for spaces too large for the exact
// O(n³) scans. Every estimator is a maximum over randomly drawn triplets,
// hence a lower bound on the exact parameter that converges to it as the
// sample count approaches the n³ triplet population.

// sampleRowBlock is the number of third-index draws evaluated against one
// sampled row pair by the batched estimators: large enough to amortize
// fetching two decay rows through the RowSpace contract, small enough that
// a modest sample budget still spreads over many row pairs.
const sampleRowBlock = 64

// SampledEstimate is a sampled metricity estimate together with a simple
// concentration statement over its strata. Value — the maximum over every
// evaluated triplet — is the point estimate and a lower bound on the exact
// parameter. The full strata of the underlying scan (sampleRowBlock-draw
// row pairs; a trailing partial stratum still contributes to Value and
// Evaluated but is excluded from the summary, since its maximum is not
// identically distributed) yield i.i.d. stratum maxima; MeanStratumMax is
// their mean and HalfWidth95 the Hoeffding 95% half-width on
// E[stratum max] using the observed stratum-maximum range as the bounding
// interval. A small half-width says further equal-sized strata are
// unlikely to move the estimate: Value sits at least
// (Value − MeanStratumMax) above the center of the interval new strata
// concentrate in.
type SampledEstimate struct {
	// Value is the point estimate (max over all evaluated triplets).
	Value float64
	// Evaluated is the number of triplets drawn (exactly the budget).
	Evaluated int
	// Strata is the number of full (sampleRowBlock-draw) strata behind
	// the concentration summary.
	Strata int
	// MeanStratumMax is the mean of the per-stratum maxima.
	MeanStratumMax float64
	// HalfWidth95 is the Hoeffding 95% half-width on E[stratum max].
	HalfWidth95 float64
}

// hoeffding95 is ln(2/δ) at δ = 0.05, the constant of the two-sided
// Hoeffding bound P(|mean − E| ≥ t) ≤ 2·exp(−2·S·t²/range²).
var hoeffding95 = math.Log(2 / 0.05)

// newSampledEstimate derives the concentration summary from the scan's
// per-stratum maxima.
func newSampledEstimate(value float64, evaluated int, maxima []float64) SampledEstimate {
	est := SampledEstimate{Value: value, Evaluated: evaluated, Strata: len(maxima)}
	if len(maxima) == 0 {
		return est
	}
	lo, hi, sum := maxima[0], maxima[0], 0.0
	for _, m := range maxima {
		sum += m
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	est.MeanStratumMax = sum / float64(len(maxima))
	est.HalfWidth95 = (hi - lo) * math.Sqrt(hoeffding95/(2*float64(len(maxima))))
	return est
}

// ZetaSampledEstimate is ZetaSampledBatch with the concentration summary:
// the same deterministic scan, plus Hoeffding statistics over the
// per-stratum maxima (see SampledEstimate).
func ZetaSampledEstimate(d Space, samples int, src *rng.Source) SampledEstimate {
	est, _ := ZetaSampledEstimateCtx(context.Background(), d, samples, src)
	return est
}

// ZetaSampledEstimateCtx is ZetaSampledEstimate with cooperative
// cancellation: ctx is polled between strata, and a cancelled scan returns
// ctx.Err() with no partial estimate.
func ZetaSampledEstimateCtx(ctx context.Context, d Space, samples int, src *rng.Source) (SampledEstimate, error) {
	v, k, maxima, err := zetaSampledScan(ctx, d, samples, src)
	if err != nil {
		return SampledEstimate{}, err
	}
	return newSampledEstimate(v, k, fullStrata(maxima, samples)), nil
}

// VarphiSampledEstimate is VarphiSampledBatch with the concentration
// summary (see SampledEstimate).
func VarphiSampledEstimate(d Space, samples int, src *rng.Source) SampledEstimate {
	est, _ := VarphiSampledEstimateCtx(context.Background(), d, samples, src)
	return est
}

// VarphiSampledEstimateCtx is VarphiSampledEstimate with cooperative
// cancellation (see ZetaSampledEstimateCtx).
func VarphiSampledEstimateCtx(ctx context.Context, d Space, samples int, src *rng.Source) (SampledEstimate, error) {
	v, k, maxima, err := varphiSampledScan(ctx, d, samples, src)
	if err != nil {
		return SampledEstimate{}, err
	}
	return newSampledEstimate(v, k, fullStrata(maxima, samples)), nil
}

// maxTargetSamples caps the doubling loops of the target-precision
// estimators: 2²⁶ triplets keep the worst case in single-digit seconds on
// the worker pool, far past the budget any realistic half-width target
// needs.
const maxTargetSamples = 1 << 26

// ZetaSampledTarget iterates the sampled ζ estimator, doubling the triplet
// budget from `initial` until the estimate's Hoeffding 95% half-width is at
// most eps (or the budget reaches an internal cap — the returned estimate
// then reports the half-width actually achieved). Each attempt continues
// drawing from src, so the sequence is deterministic in (d, initial, eps,
// src).
func ZetaSampledTarget(ctx context.Context, d Space, initial int, eps float64, src *rng.Source) (SampledEstimate, error) {
	return sampledTarget(ctx, d, initial, eps, src, zetaSampledScan)
}

// VarphiSampledTarget is the ϕ analogue of ZetaSampledTarget.
func VarphiSampledTarget(ctx context.Context, d Space, initial int, eps float64, src *rng.Source) (SampledEstimate, error) {
	return sampledTarget(ctx, d, initial, eps, src, varphiSampledScan)
}

// sampledTarget drives the half-width-targeted doubling loop shared by the
// ζ and ϕ estimators. The point estimate only grows across attempts (each
// scan's maximum is folded into the running value), while the concentration
// summary is the final — largest — scan's, whose strata dominate every
// earlier attempt's.
func sampledTarget(ctx context.Context, d Space, initial int, eps float64, src *rng.Source,
	scan func(ctx context.Context, d Space, samples int, src *rng.Source) (float64, int, []float64, error)) (SampledEstimate, error) {
	if initial <= 0 {
		initial = sampleRowBlock
	}
	samples := initial
	best := math.Inf(-1)
	evaluated := 0
	for {
		v, k, maxima, err := scan(ctx, d, samples, src)
		if err != nil {
			return SampledEstimate{}, err
		}
		evaluated += k
		if v > best {
			best = v
		}
		est := newSampledEstimate(best, evaluated, fullStrata(maxima, samples))
		if (est.Strata > 0 && est.HalfWidth95 <= eps) || samples >= maxTargetSamples {
			return est, nil
		}
		samples *= 2
	}
}

// fullStrata trims a trailing partial stratum (budget < sampleRowBlock)
// from the scan's maxima: its maximum is stochastically smaller than the
// full strata's, and pooling it would bias the Hoeffding summary.
func fullStrata(maxima []float64, samples int) []float64 {
	full := samples / sampleRowBlock
	if full > len(maxima) {
		full = len(maxima)
	}
	return maxima[:full]
}

// ZetaSampledBatch estimates ζ from `samples` random triplets drawn in
// whole-row strata (see sampledScan). It returns the estimate — a lower
// bound on the exact ζ — and the number of triplets evaluated (exactly
// samples). Deterministic in (d, samples, src).
func ZetaSampledBatch(d Space, samples int, src *rng.Source) (float64, int) {
	v, k, _, _ := zetaSampledScan(context.Background(), d, samples, src)
	return v, k
}

// zetaSampledScan is the shared ζ scan behind ZetaSampledBatch and
// ZetaSampledEstimate, returning the per-stratum maxima as well.
func zetaSampledScan(ctx context.Context, d Space, samples int, src *rng.Source) (float64, int, []float64, error) {
	return sampledScan(ctx, d, samples, src, DefaultZetaFloor,
		func(pr *rng.Source, rowX, rowZ []float64, x, z, budget int) (float64, int) {
			n := len(rowX)
			b := math.Log(rowX[z]) // ln f(x,z)
			local := DefaultZetaFloor
			for s := 0; s < budget; s++ {
				y := pr.Intn(n)
				for y == x || y == z {
					y = pr.Intn(n)
				}
				a := math.Log(rowX[y]) // ln f(x,y)
				if a <= b {
					continue // right side dominates at every ζ
				}
				c := math.Log(rowZ[y]) // ln f(z,y)
				if a <= c {
					continue
				}
				if zt := zetaTriplet(a, b, c, 1e-12); zt > local {
					local = zt
				}
			}
			return local, budget
		})
}

// VarphiSampledBatch is the ϕ analogue of ZetaSampledBatch: each resident
// (x, y) row pair is probed with draws of the ratio f(x,z)/(f(x,y)+f(y,z)).
// Returns the estimate — a lower bound on the exact ϕ, never below the 1/2
// floor — and the number of triplets evaluated. Deterministic in
// (d, samples, src).
func VarphiSampledBatch(d Space, samples int, src *rng.Source) (float64, int) {
	v, k, _, _ := varphiSampledScan(context.Background(), d, samples, src)
	return v, k
}

// varphiSampledScan is the shared ϕ scan behind VarphiSampledBatch and
// VarphiSampledEstimate, returning the per-stratum maxima as well.
func varphiSampledScan(ctx context.Context, d Space, samples int, src *rng.Source) (float64, int, []float64, error) {
	return sampledScan(ctx, d, samples, src, 0.5,
		func(pr *rng.Source, rowX, rowY []float64, x, y, budget int) (float64, int) {
			n := len(rowX)
			fxy := rowX[y]
			local := 0.5
			for s := 0; s < budget; s++ {
				z := pr.Intn(n)
				for z == x || z == y {
					z = pr.Intn(n)
				}
				if r := rowX[z] / (fxy + rowY[z]); r > local {
					local = r
				}
			}
			return local, budget
		})
}

// sampledScan is the shared driver of the batched estimators: the sample
// budget is split into strata of sampleRowBlock draws, each stratum samples
// a row pair (a, b) — a stratified round-robin over a random permutation of
// the nodes (every node's out-row is visited before any repeats), b drawn
// uniformly distinct from a — fetches both decay rows once through the
// RowSpace batch contract, and hands them to pairKernel for `budget` draws
// (the final stratum takes the budget remainder, so exactly `samples`
// triplets are evaluated in total). Strata run on the shared worker pool
// with per-stratum SplitMix64 streams derived up front, so the returned
// (max statistic, evaluated count) is deterministic in (d, samples, src)
// regardless of scheduling. floor seeds the maximum for empty and
// undersized inputs. The third result holds each stratum's local maximum
// (floor-seeded), the raw material of the concentration summary.
func sampledScan(ctx context.Context, d Space, samples int, src *rng.Source, floor float64,
	pairKernel func(pr *rng.Source, rowA, rowB []float64, a, b, budget int) (float64, int)) (float64, int, []float64, error) {
	n := d.N()
	if n < 3 || samples <= 0 {
		return floor, 0, nil, ctx.Err()
	}
	rs := Rows(d)
	strata := (samples + sampleRowBlock - 1) / sampleRowBlock
	perm := src.Perm(n)
	seeds := make([]uint64, strata)
	for i := range seeds {
		seeds[i] = src.Uint64()
	}
	maxima := make([]float64, strata)
	best := newSharedMax(floor)
	var evaluated atomic.Int64
	err := par.ForChunkedCtx(ctx, strata, func(lo, hi int) {
		rowA := make([]float64, n)
		rowB := make([]float64, n)
		pr := rng.New(0) // reseeded per stratum; one allocation per chunk
		local := floor
		count := 0
		for k := lo; k < hi; k++ {
			if ctx.Err() != nil {
				break
			}
			pr.Seed(seeds[k])
			a := perm[k%n]
			b := pr.Intn(n)
			for b == a {
				b = pr.Intn(n)
			}
			rs.Row(a, rowA)
			rs.Row(b, rowB)
			budget := sampleRowBlock
			if k == strata-1 {
				if rem := samples - k*sampleRowBlock; rem > 0 {
					budget = rem
				}
			}
			got, kCount := pairKernel(pr, rowA, rowB, a, b, budget)
			count += kCount
			maxima[k] = got
			if got > local {
				local = got
			}
		}
		best.raise(local)
		evaluated.Add(int64(count))
	})
	if err != nil {
		return 0, 0, nil, err
	}
	return best.load(), int(evaluated.Load()), maxima, nil
}
