package trace

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"decaynet/internal/core"
	"decaynet/internal/shard"
	"decaynet/internal/stats"
)

// shardedDensePairs is the default dense-pair budget of CleanSharded:
// 2²⁸ ordered pairs (n ≤ 16384), four times past the dense pipeline's cap.
// The sharded pipeline streams readings per tx-row shard and skips the
// dense path's extra full-grid buffers (the k-nearest snapshot is only
// allocated when k-nearest imputation actually runs, and the output matrix
// adopts the conversion buffer instead of copying it), so its peak is
// two n² grids against the dense path's three.
const shardedDensePairs = 1 << 28

// CleanSharded is Clean with the aggregation, imputation and conversion
// fanned out over per-tx-row shards: shard.Split partitions the n rows
// into `shards` contiguous bands, each worker counting-sorts and
// aggregates only its own tx rows' readings, imputation fills each
// band against the shared aggregated grid, and conversion produces the
// validated matrix band-wise. Results — matrix and report — are
// bit-identical to Clean for any shard count: per-pair groups preserve
// file order, the asymmetry audit and path-loss fit reduce over exactly
// the dense pipeline's sequences, and the remaining merges (counters,
// medians, maxima) are order-independent.
//
// What sharding buys is the dense cap: campaigns the dense path refuses
// (beyond Options.MaxDensePairs, default 2²⁶ pairs ≈ n = 8192) clean here
// under the lifted default of 2²⁸ pairs (n ≤ 16384), at a peak of two n²
// float64 grids; an explicit Options.MaxDensePairs still overrides the
// budget in both directions. ctx cancellation propagates to every shard
// (workers poll per row) and returns with no partial result.
func CleanSharded(ctx context.Context, c *Campaign, opts Options, shards int) (*core.Matrix, *Report, error) {
	if shards < 1 {
		return nil, nil, fmt.Errorf("trace: CleanSharded with %d shards", shards)
	}
	// Validation mirrors CleanCtx: trust the readings over the campaign's N
	// field and reject anything that would corrupt the dense grouping.
	n := c.N
	for i, r := range c.Readings {
		if !validReading(r) {
			return nil, nil, fmt.Errorf("trace: invalid reading %d: %+v", i, r)
		}
		if r.TX >= n {
			n = r.TX + 1
		}
		if r.RX >= n {
			n = r.RX + 1
		}
	}
	if n < 2 || len(c.Readings) == 0 {
		return nil, nil, errors.New("trace: campaign needs readings on at least 2 nodes")
	}
	densePairs := uint64(shardedDensePairs)
	if opts.MaxDensePairs > 0 {
		densePairs = uint64(opts.MaxDensePairs)
	}
	if uint64(n)*uint64(n) > densePairs {
		return nil, nil, fmt.Errorf("trace: campaign spans %d nodes, beyond the sharded cleaning bound of %d pairs", n, densePairs)
	}
	if opts.K <= 0 {
		opts.K = 4
	}
	if opts.Points != nil && len(opts.Points) < n {
		return nil, nil, fmt.Errorf("trace: %d points for %d nodes", len(opts.Points), n)
	}
	rep := &Report{N: n, Readings: len(c.Readings), Malformed: c.Malformed}
	ranges := shard.Split(n, shards)

	// Phase 1 — sharded aggregation: each worker counting-sorts the
	// readings whose tx row it owns and reduces repeats into its band of
	// the shared dBm grid. Bands are disjoint; group order preserves file
	// order exactly as the dense counting sort does.
	rssi := make([]float64, n*n)
	measured := make([]int, shards)
	err := shard.EachRange(ctx, ranges, func(ctx context.Context, s int, r shard.Range) error {
		m, err := aggregateRows(ctx, c, n, r, opts.Aggregate, rssi)
		measured[s] = m
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for _, m := range measured {
		rep.PairsMeasured += m
	}
	rep.Coverage = float64(rep.PairsMeasured) / float64(n*(n-1))

	// Phase 2 — asymmetry audit. Reduced sequentially over the full grid:
	// the directional-gap sums are floating-point order-sensitive, and the
	// audit must match the dense pipeline bit for bit.
	asymmetry(rssi, n, rep)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// Phase 3 — sharded imputation.
	if err := imputeSharded(ctx, ranges, rssi, n, opts, rep); err != nil {
		return nil, nil, err
	}

	// Phase 4 — sharded dBm→decay conversion straight into the matrix's
	// own storage (see CleanCtx for the exponent clamp rationale).
	flat := make([]float64, n*n)
	err = shard.EachRange(ctx, ranges, func(ctx context.Context, _ int, r shard.Range) error {
		for i := r.Lo; i < r.Hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			row := flat[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				if i != j {
					e := (opts.TXPowerDBm - rssi[i*n+j]) / 10
					if e > 300 {
						e = 300
					} else if e < -300 {
						e = -300
					}
					row[j] = math.Pow(10, e)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	m, err := core.NewMatrixFlat(n, flat)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: cleaned campaign invalid: %w", err)
	}
	return m, rep, nil
}

// aggregateRows counting-sorts the readings with tx in [r.Lo, r.Hi) and
// reduces each pair's repeats into the owned band of the shared grid,
// returning the band's measured-pair count. The scatter pass preserves
// file order within each group, so medians and means match the dense
// aggregation exactly.
func aggregateRows(ctx context.Context, c *Campaign, n int, r shard.Range, agg Agg, rssi []float64) (int, error) {
	rows := r.Len()
	counts := make([]int32, rows*n+1)
	total := 0
	for _, rd := range c.Readings {
		if rd.TX >= r.Lo && rd.TX < r.Hi {
			counts[(rd.TX-r.Lo)*n+rd.RX+1]++
			total++
		}
	}
	for k := 1; k <= rows*n; k++ {
		counts[k] += counts[k-1]
	}
	offsets := counts
	values := make([]float64, total)
	for _, rd := range c.Readings {
		if rd.TX >= r.Lo && rd.TX < r.Hi {
			k := (rd.TX-r.Lo)*n + rd.RX
			values[offsets[k]] = rd.RSSIdBm
			offsets[k]++
		}
	}
	measured := 0
	for k := rows*n - 1; k >= 0; k-- {
		if k%n == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		start := int32(0)
		if k > 0 {
			start = offsets[k-1]
		}
		group := values[start:offsets[k]]
		cell := &rssi[r.Lo*n+k]
		if len(group) == 0 {
			*cell = math.NaN()
			continue
		}
		measured++
		switch agg {
		case Mean:
			sum := 0.0
			for _, v := range group {
				sum += v
			}
			*cell = sum / float64(len(group))
		default:
			*cell = median(group)
		}
	}
	return measured, nil
}

// imputeSharded mirrors imputeCtx band-wise: reciprocal fill, then the
// path-loss fit (reduced over the global row-major measurement sequence,
// predictions filled per band) or k-nearest-row regression against a
// shared snapshot, then the global-median fallback. Within each stage a
// band's writes land only in its own rows, and cross-band reads touch only
// entries that stage can never write (reciprocal fill reads measured
// entries and writes unmeasured ones; the k-nearest stage reads the frozen
// snapshot), so fills are race-free and partition-independent.
func imputeSharded(ctx context.Context, ranges []shard.Range, rssi []float64, n int, opts Options, rep *Report) error {
	shards := len(ranges)
	if !opts.NoReciprocal {
		filled := make([]int, shards)
		err := shard.EachRange(ctx, ranges, func(ctx context.Context, s int, r shard.Range) error {
			count := 0
			for i := r.Lo; i < r.Hi; i++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				for j := 0; j < n; j++ {
					if i != j && math.IsNaN(rssi[i*n+j]) && !math.IsNaN(rssi[j*n+i]) {
						rssi[i*n+j] = rssi[j*n+i]
						count++
					}
				}
			}
			filled[s] = count
			return nil
		})
		if err != nil {
			return err
		}
		for _, c := range filled {
			rep.ImputedReciprocal += c
		}
	}
	if opts.Points != nil {
		if err := pathLossSharded(ctx, ranges, rssi, n, opts, rep); err != nil {
			return err
		}
	} else {
		if err := knnSharded(ctx, ranges, rssi, n, opts.K, rep); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return fallbackSharded(ctx, ranges, rssi, n, rep)
}

// pathLossSharded fits the log-distance model over the measured pairs —
// collected per band and concatenated in band order, reproducing the dense
// pipeline's row-major sequence exactly — and fills each band's missing
// pairs from the fit. A degenerate fit falls back to the k-nearest
// pipeline, as in the dense path.
func pathLossSharded(ctx context.Context, ranges []shard.Range, rssi []float64, n int, opts Options, rep *Report) error {
	shards := len(ranges)
	xsPart := make([][]float64, shards)
	ysPart := make([][]float64, shards)
	err := shard.EachRange(ctx, ranges, func(ctx context.Context, s int, r shard.Range) error {
		var xs, ys []float64
		for i := r.Lo; i < r.Hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			for j := 0; j < n; j++ {
				v := rssi[i*n+j]
				if i == j || math.IsNaN(v) {
					continue
				}
				d := opts.Points[i].Dist(opts.Points[j])
				if d <= 0 {
					continue
				}
				xs = append(xs, math.Log10(d))
				ys = append(ys, v)
			}
		}
		xsPart[s], ysPart[s] = xs, ys
		return nil
	})
	if err != nil {
		return err
	}
	var xs, ys []float64
	for s := 0; s < shards; s++ {
		xs = append(xs, xsPart[s]...)
		ys = append(ys, ysPart[s]...)
	}
	a, b, r2, err := stats.LinearFit(xs, ys)
	if err != nil {
		// Too few (or degenerate) measurements for a fit; the k-nearest
		// pipeline still applies.
		return knnSharded(ctx, ranges, rssi, n, opts.K, rep)
	}
	rep.Fit = &PathLossFit{InterceptDBm: a, Exponent: -b / 10, R2: r2, Pairs: len(xs)}
	filled := make([]int, shards)
	err = shard.EachRange(ctx, ranges, func(ctx context.Context, s int, r shard.Range) error {
		count := 0
		for i := r.Lo; i < r.Hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			for j := 0; j < n; j++ {
				if i == j || !math.IsNaN(rssi[i*n+j]) {
					continue
				}
				d := opts.Points[i].Dist(opts.Points[j])
				if d <= 0 {
					continue
				}
				rssi[i*n+j] = a + b*math.Log10(d)
				count++
			}
		}
		filled[s] = count
		return nil
	})
	if err != nil {
		return err
	}
	for _, c := range filled {
		rep.ImputedPathLoss += c
	}
	return nil
}

// knnSharded runs the k-nearest-row prediction band-wise against a shared
// pre-imputation snapshot (the one extra full grid the k-nearest route
// costs, exactly as in the dense pipeline).
func knnSharded(ctx context.Context, ranges []shard.Range, rssi []float64, n, k int, rep *Report) error {
	snap := append([]float64(nil), rssi...)
	filled := make([]int, len(ranges))
	err := shard.EachRange(ctx, ranges, func(ctx context.Context, s int, r shard.Range) error {
		filled[s] = knnRows(ctx, snap, rssi, n, k, r.Lo, r.Hi)
		return ctx.Err()
	})
	if err != nil {
		return err
	}
	for _, c := range filled {
		rep.ImputedKNN += c
	}
	return nil
}

// fallbackSharded fills anything still missing with the global median of
// the known values. Known values are collected per band (the median of a
// multiset does not depend on collection order); when no band reports a
// missing entry the collection is skipped outright — an n² saving the
// dense pipeline does not attempt.
func fallbackSharded(ctx context.Context, ranges []shard.Range, rssi []float64, n int, rep *Report) error {
	shards := len(ranges)
	missing := make([]bool, shards)
	err := shard.EachRange(ctx, ranges, func(ctx context.Context, s int, r shard.Range) error {
		for i := r.Lo; i < r.Hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if rowHasMissing(rssi, i, n) {
				missing[s] = true
				return nil
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	any := false
	for _, m := range missing {
		any = any || m
	}
	if !any {
		return nil
	}
	var (
		mu    sync.Mutex
		known []float64
	)
	err = shard.EachRange(ctx, ranges, func(ctx context.Context, s int, r shard.Range) error {
		var local []float64
		for i := r.Lo; i < r.Hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			for j := 0; j < n; j++ {
				if i != j && !math.IsNaN(rssi[i*n+j]) {
					local = append(local, rssi[i*n+j])
				}
			}
		}
		mu.Lock()
		known = append(known, local...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	if len(known) == 0 {
		return nil // CleanSharded rejects empty campaigns before imputation
	}
	med := medianOfMultiset(known)
	filled := make([]int, shards)
	err = shard.EachRange(ctx, ranges, func(ctx context.Context, s int, r shard.Range) error {
		count := 0
		for i := r.Lo; i < r.Hi; i++ {
			for j := 0; j < n; j++ {
				if i != j && math.IsNaN(rssi[i*n+j]) {
					rssi[i*n+j] = med
					count++
				}
			}
		}
		filled[s] = count
		return nil
	})
	if err != nil {
		return err
	}
	for _, c := range filled {
		rep.ImputedFallback += c
	}
	return nil
}

// medianOfMultiset is median over a value multiset whose collection order
// is not meaningful (sorting makes the result order-independent, so
// per-shard concatenation in any order yields the dense pipeline's value).
func medianOfMultiset(vals []float64) float64 {
	sort.Float64s(vals)
	m := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[m]
	}
	return (vals[m-1] + vals[m]) / 2
}
