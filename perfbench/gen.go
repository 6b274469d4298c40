package main

import (
	"math"
	"math/rand/v2"
	"sort"

	"decaynet"
)

// Op lists are drawn from PCG streams keyed by the run seed and a
// per-purpose stream constant, so one seed always yields the same inputs
// and warm-up inputs never coincide with timed ones.
const (
	streamOps    = 0x0b5e_55ed
	streamWarmup = 0x3a7a_b1e5
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// sessionSeeds draws n distinct scenario seeds for the analyze op list.
// Timed seeds have the top bit clear and warm-up seeds have it set, so the
// two ranges are disjoint.
func sessionSeeds(seed uint64, n int, warmup bool) []uint64 {
	stream, mask := uint64(streamOps), uint64(0)
	if warmup {
		stream, mask = streamWarmup, 1<<63
	}
	r := newRand(seed, stream)
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := r.Uint64()>>1 | mask
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// powerOp is one fresh-power query: a linear power scale and the links it
// is asked about (nil = all).
type powerOp struct {
	scale float64
	links []int
}

// powerOps draws n fresh linear-power scales, log-uniform in [0.1, 10].
// With half set each op also draws a sorted random half of the links.
func powerOps(r *rand.Rand, n, links int, half bool) []powerOp {
	out := make([]powerOp, n)
	for i := range out {
		out[i].scale = math.Pow(10, 2*r.Float64()-1)
		if half {
			set := r.Perm(links)[:links/2]
			sort.Ints(set)
			out[i].links = set
		}
	}
	return out
}

// The mutation mix of the churn and scale-out write: most writes
// re-measure a few decays, some retune a whole row, and the rest swap a
// link. Every block of mixBlock consecutive batches holds exactly the same
// number of each kind, in a seeded order, so the share of each kind — and
// with it the write median — does not vary with the seed.
const (
	mixBlock  = 20
	mixDecays = 12 // batches of decaysPerOp set_decays re-measurements
	mixRows   = 5  // batches of one set_rows retune; the other 3 swap a link

	decaysPerOp   = 4
	remeasureDB   = 2.0 // σ of a re-measurement's change, in dB
	remeasureSkew = math.Ln10 / 10
)

// mutGen draws the seeded mutation stream of a session. It mirrors the
// session's decay matrix and link set, so every re-measurement perturbs
// the value the session holds at that point of the stream.
type mutGen struct {
	f     [][]float64 // f[i][j]: the mirrored decay matrix
	links []decaynet.Link
	r     *rand.Rand
}

func newMutGen(space decaynet.Space, links []decaynet.Link) *mutGen {
	n := space.N()
	f := make([][]float64, n)
	for i := range f {
		f[i] = make([]float64, n)
		for j := range f[i] {
			f[i][j] = space.F(i, j)
		}
	}
	return &mutGen{f: f, links: append([]decaynet.Link(nil), links...)}
}

// remeasure perturbs a decay by a seeded log-normal factor.
func (g *mutGen) remeasure(v float64) float64 {
	return v * math.Exp(remeasureDB*remeasureSkew*g.r.NormFloat64())
}

// next draws one mutation batch of the kind at position k of a block and
// applies it to the mirror.
func (g *mutGen) next(k int) decaynet.Mutation {
	n := len(g.f)
	var m decaynet.Mutation
	switch {
	case k < mixDecays:
		seen := map[[2]int]bool{}
		for len(m.SetDecays) < decaysPerOp {
			i, j := g.r.IntN(n), g.r.IntN(n)
			if i == j || seen[[2]int{i, j}] {
				continue
			}
			seen[[2]int{i, j}] = true
			v := g.remeasure(g.f[i][j])
			g.f[i][j] = v
			m.SetDecays = append(m.SetDecays, decaynet.DecayEdit{I: i, J: j, F: v})
		}
	case k < mixDecays+mixRows:
		row := g.r.IntN(n)
		vals := make([]float64, n)
		for j := range vals {
			if j != row {
				vals[j] = g.remeasure(g.f[row][j])
			}
		}
		copy(g.f[row], vals)
		m.SetRows = map[int][]float64{row: vals}
	default:
		victim := g.r.IntN(len(g.links))
		g.links = append(g.links[:victim], g.links[victim+1:]...)
		// The new link pairs a random sender with its strongest receiver:
		// a short link, like the ones the scenario places.
		s := g.r.IntN(n)
		best := -1
		for j, v := range g.f[s] {
			if j != s && (best < 0 || v < g.f[s][best]) {
				best = j
			}
		}
		l := decaynet.Link{Sender: s, Receiver: best}
		g.links = append(g.links, l)
		m.RemoveLinks = []int{victim}
		m.AddLinks = []decaynet.Link{l}
	}
	return m
}

// draw returns the next n batches of the stream under r.
func (g *mutGen) draw(r *rand.Rand, n int) []decaynet.Mutation {
	g.r = r
	out := make([]decaynet.Mutation, n)
	var kinds []int
	for i := range out {
		if i%mixBlock == 0 {
			kinds = r.Perm(mixBlock)
		}
		out[i] = g.next(kinds[i%mixBlock])
	}
	return out
}

// dirtyRows lists the decay rows a batch rewrites, sorted.
func dirtyRows(m decaynet.Mutation) []int {
	set := map[int]bool{}
	for r := range m.SetRows {
		set[r] = true
	}
	for _, e := range m.SetDecays {
		set[e.I] = true
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}
