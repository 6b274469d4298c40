// Package hardness builds the paper's lower-bound constructions and example
// spaces: the Theorem 3 reduction from MAX INDEPENDENT SET (general decay
// spaces), the Theorem 6 two-line construction (bounded-growth spaces), the
// Sec 3.4 star space, Welzl's doubling-vs-independence construction, and
// the Sec 4.2 ζ-vs-φ gap family. It also implements independence dimension
// and guard sets (Def 4.1).
package hardness

import (
	"errors"
	"fmt"
	"math"

	"decaynet/internal/core"
	"decaynet/internal/graph"
	"decaynet/internal/sinr"
)

// Instance couples a decay space with the link set of a reduction, plus the
// source graph when the construction encodes one.
type Instance struct {
	Space *core.Matrix
	Links []sinr.Link
	// Graph is the source graph of graph-based reductions (nil otherwise).
	Graph *graph.Graph
}

// System wraps the instance in a sinr.System with β = 1 and zero noise, the
// parameters of the hardness proofs.
func (in *Instance) System() (*sinr.System, error) {
	return sinr.NewSystem(in.Space, in.Links)
}

// Theorem3 builds the CAPACITY-hardness instance of Theorem 3 from a graph:
// one unit-decay link per vertex, with cross decays
//
//	f(s_i, r_j) = 1/2  when v_i v_j ∈ E   (interference above signal)
//	f(s_i, r_j) = n    when v_i v_j ∉ E   (interference n-fold below signal)
//
// so that feasible link sets correspond exactly to independent sets, under
// uniform power and under arbitrary power control (edge pairs satisfy
// f_ij·f_ji < f_ii·f_jj, so no power assignment saves them).
//
// Note on constants: the arXiv text states the two decay levels as "2" and
// "1/n", which makes edge interference *weaker* than the signal and the
// reduction vacuous; the appendix's own power-control argument and the
// Theorem 6 construction (edge decay n^α′−δ just *below* the signal decay
// n^α′, non-edge decay n^α′+1 above it) fix the intended direction, which
// is what we implement.
func Theorem3(g *graph.Graph) (*Instance, error) {
	n := g.N()
	if n < 2 {
		return nil, errors.New("hardness: need at least two vertices")
	}
	edgeDecay := 0.5
	nonEdgeDecay := float64(n)
	nodes := 2 * n
	space, err := core.FromFunc(nodes, func(a, b int) float64 {
		i, j := a/2, b/2
		if i == j {
			return 1 // own sender-receiver pair: unit decay
		}
		if g.HasEdge(i, j) {
			return edgeDecay
		}
		return nonEdgeDecay
	})
	if err != nil {
		return nil, fmt.Errorf("hardness: theorem 3 space: %w", err)
	}
	links := make([]sinr.Link, n)
	for i := range links {
		links[i] = sinr.Link{Sender: 2 * i, Receiver: 2*i + 1}
	}
	return &Instance{Space: space, Links: links, Graph: g}, nil
}

// Theorem6 builds the bounded-growth hardness instance of Theorem 6: links
// embedded on two vertical lines (senders at (0, i), receivers at (n, i)),
// within-line decays |i−j|^α′, and two fixed cross-line decay levels
// n^α′ − δ (edges) and n^(α′+1) (non-edges). The space is doubling with
// small constant and has independence dimension ≤ 3, yet feasible sets
// still correspond to independent sets — CAPACITY stays 2^(φ(1−o(1)))-hard.
func Theorem6(g *graph.Graph, alphaPrime, delta float64) (*Instance, error) {
	n := g.N()
	if n < 2 {
		return nil, errors.New("hardness: need at least two vertices")
	}
	if alphaPrime < 1 {
		return nil, errors.New("hardness: alphaPrime must be at least 1")
	}
	if delta <= 0 || delta >= 0.5 {
		return nil, errors.New("hardness: delta must be in (0, 1/2)")
	}
	nf := float64(n)
	signal := math.Pow(nf, alphaPrime)
	edge := signal - delta
	nonEdge := math.Pow(nf, alphaPrime+1)
	// Node layout: sender i = 2i at (0, i), receiver i = 2i+1 at (n, i).
	space, err := core.FromFunc(2*n, func(a, b int) float64 {
		i, j := a/2, b/2
		aIsSender, bIsSender := a%2 == 0, b%2 == 0
		if aIsSender == bIsSender {
			if i == j {
				return 0 // same node; FromFunc skips the diagonal anyway
			}
			return math.Pow(math.Abs(float64(i-j)), alphaPrime)
		}
		// Sender-receiver pair across the two lines.
		switch {
		case i == j:
			return signal
		case g.HasEdge(i, j):
			return edge
		default:
			return nonEdge
		}
	})
	if err != nil {
		return nil, fmt.Errorf("hardness: theorem 6 space: %w", err)
	}
	links := make([]sinr.Link, n)
	for i := range links {
		links[i] = sinr.Link{Sender: 2 * i, Receiver: 2*i + 1}
	}
	return &Instance{Space: space, Links: links, Graph: g}, nil
}

// NoPowerSaves reports whether the pair of links (i, j) is infeasible under
// every power assignment: a_i(j)·a_j(i) ≥ β²·f_ii·f_jj/(f_ij·f_ji) > 1
// holds iff f_ij·f_ji < β²·f_ii·f_jj.
func NoPowerSaves(s *sinr.System, i, j int) bool {
	b2 := s.Beta() * s.Beta()
	return s.CrossDecay(i, j)*s.CrossDecay(j, i) < b2*s.Decay(i)*s.Decay(j)
}

// Star builds the Sec 3.4 star space: center x0 (node 0), k leaves at
// distance k² (nodes 1..k) and one leaf x_{-1} at distance r (node k+1),
// with decay equal to the shortest-path distance through the star (ζ = 1).
// Its doubling dimension grows with k, yet the fading value at x_{-1}
// relative to separation r stays bounded.
func Star(k int, r float64) (*core.Matrix, error) {
	if k < 1 || r <= 0 {
		return nil, errors.New("hardness: star needs k >= 1, r > 0")
	}
	toCenter := func(v int) float64 {
		switch {
		case v == 0:
			return 0
		case v == k+1:
			return r
		default:
			return float64(k * k)
		}
	}
	return core.FromFunc(k+2, func(i, j int) float64 {
		if i == 0 {
			return toCenter(j)
		}
		if j == 0 {
			return toCenter(i)
		}
		return toCenter(i) + toCenter(j)
	})
}

// Welzl builds Welzl's construction (Sec 4.1): V = {v_{-1}, v_0, ..., v_n}
// with d(v_{-1}, v_i) = 2^i − ε and d(v_j, v_i) = 2^i for j < i. The metric
// has doubling dimension 1 but independence dimension n+1 (all of
// V ∖ {v_{-1}} is independent with respect to v_{-1}).
// Node 0 plays v_{-1}; node i+1 plays v_i.
func Welzl(n int, eps float64) (*core.Matrix, error) {
	if n < 1 || eps <= 0 || eps > 0.25 {
		return nil, errors.New("hardness: welzl needs n >= 1, eps in (0, 1/4]")
	}
	return core.FromFunc(n+2, func(a, b int) float64 {
		if a > b {
			a, b = b, a
		}
		// a < b here. v_{-1} is node 0; v_i is node i+1 (i from 0).
		i := float64(b - 1)
		if a == 0 {
			return math.Pow(2, i) - eps
		}
		return math.Pow(2, i)
	})
}

// GapFamily builds the three-point Sec 4.2 example with f(a,b) = 1,
// f(b,c) = q, f(a,c) = 2q: ϕ ≤ 2 for all q while ζ = Θ(log q / log log q).
func GapFamily(q float64) (*core.Matrix, error) {
	if q <= 1 {
		return nil, errors.New("hardness: gap family needs q > 1")
	}
	return core.NewMatrix([][]float64{
		{0, 1, 2 * q},
		{1, 0, q},
		{2 * q, q, 0},
	})
}
