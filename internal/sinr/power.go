package sinr

import (
	"errors"
	"fmt"
	"math"
)

// Power is a per-link transmit power vector. All entries must be positive
// and finite.
type Power []float64

// ErrPowerMismatch reports a power vector whose length differs from the
// system's link count — typically one built before a mutation added or
// removed links. Validate wraps it.
var ErrPowerMismatch = errors.New("sinr: power vector does not match the link set")

// Validate checks the vector against a system: one positive, finite entry
// per link. A length mismatch wraps ErrPowerMismatch.
func (p Power) Validate(s *System) error {
	if len(p) != s.Len() {
		return fmt.Errorf("%w: %d entries for %d links", ErrPowerMismatch, len(p), s.Len())
	}
	for v, pv := range p {
		if math.IsNaN(pv) || math.IsInf(pv, 0) || pv <= 0 {
			return fmt.Errorf("sinr: power[%d] = %v", v, pv)
		}
	}
	return nil
}

// UniformPower assigns every link the same power p.
func UniformPower(s *System, p float64) Power {
	out := make(Power, s.Len())
	for i := range out {
		out[i] = p
	}
	return out
}

// LinearPower assigns P_v = scale · f_vv, equalizing received signal
// strength across links ("linear" power in the paper's taxonomy).
func LinearPower(s *System, scale float64) Power {
	out := make(Power, s.Len())
	for v := range out {
		out[v] = scale * s.Decay(v)
	}
	return out
}

// MeanPower assigns P_v = scale · sqrt(f_vv) (the square-root/mean scheme,
// the canonical oblivious monotone assignment between uniform and linear).
func MeanPower(s *System, scale float64) Power {
	out := make(Power, s.Len())
	for v := range out {
		out[v] = scale * math.Sqrt(s.Decay(v))
	}
	return out
}

// ExponentPower assigns P_v = scale · f_vv^tau, generalizing uniform
// (tau=0), mean (tau=1/2) and linear (tau=1). Monotone for tau in [0, 1].
func ExponentPower(s *System, scale, tau float64) Power {
	out := make(Power, s.Len())
	for v := range out {
		out[v] = scale * math.Pow(s.Decay(v), tau)
	}
	return out
}

// IsMonotone reports whether the assignment is monotone per Sec 2.4: for
// every pair with f_vv ≤ f_ww (l_v ≺ l_w), both P_v ≤ P_w and
// P_w/f_ww ≤ P_v/f_vv hold, within relative tolerance tol.
func IsMonotone(s *System, p Power, tol float64) bool {
	order := s.DecayOrder()
	for i := 0; i < len(order); i++ {
		v := order[i]
		for j := i + 1; j < len(order); j++ {
			w := order[j]
			if p[v] > p[w]*(1+tol) {
				return false
			}
			if p[w]/s.Decay(w) > p[v]/s.Decay(v)*(1+tol) {
				return false
			}
		}
	}
	return true
}
