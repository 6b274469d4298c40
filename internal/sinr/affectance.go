package sinr

import "math"

// NoiseFactor returns c_v = β / (1 − β·N·f_vv/P_v), the constant in the
// affectance definition of Sec 2.4 expressing how much of the link's SINR
// budget the ambient noise consumes. It is +Inf when the link cannot meet
// the threshold even without interference (P_v·G_vv ≤ β·N); with zero
// noise it is exactly β.
func NoiseFactor(s *System, p Power, v int) float64 {
	margin := 1 - s.beta*s.noise*s.Decay(v)/p[v]
	if margin <= 0 {
		return math.Inf(1)
	}
	return s.beta / margin
}

// Affectance returns a_w(v) = min(1, c_v · (P_w/P_v) · (f_vv/f_wv)), the
// normalized interference of link w on link v (Sec 2.4). a_v(v) = 0.
func Affectance(s *System, p Power, w, v int) float64 {
	return math.Min(1, AffectanceRaw(s, p, w, v))
}

// AffectanceRaw is Affectance without the min(1, ·) clipping. Unclipped
// sums are what make the rewrite "S feasible ⇔ a_S(v) ≤ 1" exact.
func AffectanceRaw(s *System, p Power, w, v int) float64 {
	if w == v {
		return 0
	}
	return linkFactor(s, p, v) * p[w] / s.CrossDecay(w, v)
}

// linkFactor returns c_v·f_vv/P_v, the factor of a_w(v) that depends only
// on the affected link v (+Inf for a link dead even in isolation). Every
// affectance path multiplies it by P_w and divides by f_wv in that order,
// so per-pair and batched values agree bit for bit.
func linkFactor(s *System, p Power, v int) float64 {
	return NoiseFactor(s, p, v) * s.Decay(v) / p[v]
}

// InAffectance returns a_S(v) = Σ_{w∈S} a_w(v) with clipped terms.
func InAffectance(s *System, p Power, set []int, v int) float64 {
	total := 0.0
	for _, w := range set {
		total += Affectance(s, p, w, v)
	}
	return total
}

// InAffectanceRaw is InAffectance with unclipped terms.
func InAffectanceRaw(s *System, p Power, set []int, v int) float64 {
	total := 0.0
	for _, w := range set {
		total += AffectanceRaw(s, p, w, v)
	}
	return total
}

// OutAffectance returns a_v(S) = Σ_{w∈S} a_v(w) with clipped terms.
func OutAffectance(s *System, p Power, v int, set []int) float64 {
	total := 0.0
	for _, w := range set {
		total += Affectance(s, p, v, w)
	}
	return total
}

// SINR returns the signal-to-interference-and-noise ratio of link v when
// the links in set transmit simultaneously with powers p (Eq. 1). v itself
// is excluded from the interference sum whether or not it appears in set.
func SINR(s *System, p Power, set []int, v int) float64 {
	return sinrWith(s, p, set, v, v) // extra == v contributes nothing
}

// Succeeds reports whether link v meets the SINR threshold β when set
// transmits.
func Succeeds(s *System, p Power, set []int, v int) bool {
	sig, itf := signalInterference(s, p, set, v, v)
	return Clears(sig, itf, s.beta)
}

// IsFeasible reports whether every link in the set meets the SINR
// threshold when all of them transmit simultaneously.
func IsFeasible(s *System, p Power, set []int) bool {
	for _, v := range set {
		if !Succeeds(s, p, set, v) {
			return false
		}
	}
	return true
}

// IsFeasibleWith reports whether set ∪ {extra} is feasible, without
// materializing the union — the allocation-free probe the first-fit
// scheduler runs once per (link, slot) pair. extra must not already be a
// member of set.
func IsFeasibleWith(s *System, p Power, set []int, extra int) bool {
	if sig, itf := signalInterference(s, p, set, extra, extra); !Clears(sig, itf, s.beta) {
		return false
	}
	for _, v := range set {
		if sig, itf := signalInterference(s, p, set, extra, v); !Clears(sig, itf, s.beta) {
			return false
		}
	}
	return true
}

// sinrWith is SINR over the implicit set ∪ {extra}, evaluated at link v.
func sinrWith(s *System, p Power, set []int, extra, v int) float64 {
	signal, interference := signalInterference(s, p, set, extra, v)
	if interference == 0 {
		return math.Inf(1)
	}
	return signal / interference
}

// signalInterference decomposes the SINR of link v under set ∪ {extra} into
// its numerator and denominator, the pair Clears decides on. Every SINR
// comparison in the package funnels through this plus Clears so that the
// threshold semantics (including the zero-interference corner) live in
// exactly one place.
func signalInterference(s *System, p Power, set []int, extra, v int) (signal, interference float64) {
	signal = p[v] / s.Decay(v)
	interference = s.noise
	for _, w := range set {
		if w == v {
			continue
		}
		interference += p[w] / s.CrossDecay(w, v)
	}
	if extra != v {
		interference += p[extra] / s.CrossDecay(extra, v)
	}
	return signal, interference
}

// IsKFeasible reports whether a_S(v) ≤ 1/K for every link v in S (with
// unclipped affectance): K-feasible sets tolerate K-fold strengthening.
// 1-feasibility coincides with IsFeasible away from exact-threshold
// boundaries.
func IsKFeasible(s *System, p Power, set []int, k float64) bool {
	if k <= 0 {
		return false
	}
	for _, v := range set {
		if InAffectanceRaw(s, p, set, v) > 1/k {
			return false
		}
	}
	return true
}

// MaxInAffectance returns the largest a_S(v) over v ∈ S (unclipped), the
// quantity whose ≤ 1 contour is feasibility.
func MaxInAffectance(s *System, p Power, set []int) float64 {
	worst := 0.0
	for _, v := range set {
		if a := InAffectanceRaw(s, p, set, v); a > worst {
			worst = a
		}
	}
	return worst
}
