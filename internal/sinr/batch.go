package sinr

import (
	"context"
	"math"

	"decaynet/internal/par"
	"decaynet/internal/shard"
)

// Affectances is the dense pairwise affectance cache for one (system,
// power) pair: entry (w, v) holds the unclipped a_w(v) of Sec 2.4. It reads
// only the link×link decays f(s_w, r_v) — one F per entry through
// shard.AffectanceRow, never a whole space row — and is what the capacity
// and scheduling algorithms consume.
type Affectances struct {
	n   int
	raw []float64 // a_w(v) unclipped, row-major by w; +Inf for dead links
}

// linkVectors returns the per-link inputs of every affectance build:
// factor[v] = c_v·f_vv/P_v (+Inf when the link cannot meet its threshold
// even in isolation, matching NoiseFactor), and each link's receiver and
// sender node.
func linkVectors(s *System, p Power) (factor []float64, recv, send []int) {
	n := s.Len()
	factor, recv, send = make([]float64, n), make([]int, n), make([]int, n)
	for v := 0; v < n; v++ {
		factor[v] = linkFactor(s, p, v)
		recv[v] = s.links[v].Receiver
		send[v] = s.links[v].Sender
	}
	return factor, recv, send
}

// ComputeAffectances builds the dense affectance matrix for power vector p.
//
// AffectanceRaw(w, v) factors as (c_v·f_vv/P_v) · P_w / f_wv: the first
// term depends only on v and is hoisted into a per-link vector, after
// which entry (w, v) needs only the decay from w's sender to v's receiver.
// The links×links build costs O(links²) F calls regardless of the node
// count, on the shared worker pool.
func ComputeAffectances(s *System, p Power) *Affectances {
	a, _ := ComputeAffectancesCtx(context.Background(), s, p)
	return a
}

// ComputeAffectancesCtx is ComputeAffectances with cooperative
// cancellation: ctx is polled per sender row and a cancelled build returns
// ctx.Err() with no matrix.
func ComputeAffectancesCtx(ctx context.Context, s *System, p Power) (*Affectances, error) {
	n := s.Len()
	a := &Affectances{n: n, raw: make([]float64, n*n)}
	if n == 0 {
		return a, ctx.Err()
	}
	factor, recv, send := linkVectors(s, p)
	err := par.ForChunkedCtx(ctx, n, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			if ctx.Err() != nil {
				return
			}
			shard.AffectanceRow(s.space, w, send[w], p[w], factor, recv, a.raw[w*n:(w+1)*n])
		}
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// PatchAffectances returns a copy of old with the rows and columns of the
// given links recomputed against the (since-mutated) space — the
// incremental repair after a decay mutation. dirty must contain every link
// whose sender or receiver node changed: a_w(v) reads f(s_w, r_v) and the
// per-link factor c_v·f_vv/P_v, so exactly the rows w and columns v of
// links incident to a dirty node are stale. Unchanged entries are copied
// bit-for-bit, and recomputed ones evaluate the same expression as
// ComputeAffectances, so the patched matrix is identical to a fresh build.
// old is left untouched.
func PatchAffectances(s *System, p Power, old *Affectances, dirty []int) *Affectances {
	n := s.Len()
	a := &Affectances{n: n, raw: append([]float64(nil), old.raw...)}
	if n == 0 || len(dirty) == 0 {
		return a
	}
	factor, recv, send := linkVectors(s, p)
	for _, w := range dirty {
		shard.AffectanceRow(s.space, w, send[w], p[w], factor, recv, a.raw[w*n:(w+1)*n])
	}
	for _, v := range dirty {
		for w := 0; w < n; w++ {
			if w != v {
				a.raw[w*n+v] = factor[v] * p[w] / s.space.F(send[w], recv[v])
			}
		}
	}
	return a
}

// N returns the number of links covered.
func (a *Affectances) N() int { return a.n }

// Raw returns the unclipped a_w(v), identical to AffectanceRaw.
func (a *Affectances) Raw(w, v int) float64 { return a.raw[w*a.n+v] }

// Clipped returns min(1, a_w(v)), identical to Affectance.
func (a *Affectances) Clipped(w, v int) float64 {
	return math.Min(1, a.raw[w*a.n+v])
}

// In returns a_S(v) = Σ_{w∈S} min(1, a_w(v)).
func (a *Affectances) In(set []int, v int) float64 {
	total := 0.0
	for _, w := range set {
		total += math.Min(1, a.raw[w*a.n+v])
	}
	return total
}

// InRaw returns a_S(v) with unclipped terms.
func (a *Affectances) InRaw(set []int, v int) float64 {
	total := 0.0
	for _, w := range set {
		total += a.raw[w*a.n+v]
	}
	return total
}

// Out returns a_v(S) = Σ_{w∈S} min(1, a_v(w)).
func (a *Affectances) Out(v int, set []int) float64 {
	row := a.raw[v*a.n : (v+1)*a.n]
	total := 0.0
	for _, w := range set {
		total += math.Min(1, row[w])
	}
	return total
}

// MaxInRaw returns the largest unclipped a_S(v) over v ∈ S — the quantity
// whose ≤ 1 contour is feasibility.
func (a *Affectances) MaxInRaw(set []int) float64 {
	worst := 0.0
	for _, v := range set {
		if in := a.InRaw(set, v); in > worst {
			worst = in
		}
	}
	return worst
}
