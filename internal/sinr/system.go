// Package sinr implements the abstract SINR machinery of the paper on top
// of decay spaces: links, power assignments, affectance (Sec 2.4), SINR
// feasibility, link separation, signal strengthening (Lemma B.1), the
// separation partitions of Lemmas B.2/B.3/4.1, and amicability (Def 4.2 /
// Theorem 4).
package sinr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"decaynet/internal/core"
)

// Link is a sender-receiver pair of node indices into a decay space.
type Link struct {
	Sender   int `json:"sender"`
	Receiver int `json:"receiver"`
}

// System binds a decay space, a set of links and the radio parameters
// (ambient noise N and SINR threshold β ≥ 1). All algorithmic routines in
// this and higher packages operate on a System.
//
// The metricity state (ζ and the induced quasi-metric) is lazily computed,
// cached, and — unlike a sync.Once — resettable: the mutable-session layer
// invalidates or replaces it when the underlying space changes
// (InvalidateMetricity / SetMetricity). Reads and lazy computation are
// mutex-guarded and safe for concurrent use; mutating the space itself
// concurrently with readers is the session layer's responsibility (the
// public Engine serializes mutations behind a write lock).
type System struct {
	space core.Space
	links []Link
	noise float64
	beta  float64

	metMu  sync.Mutex
	metOK  bool
	zeta   float64
	zetaFn func(context.Context) (float64, error) // optional lazy ζ source
	qm     *core.QuasiMetric

	// Small LRU cache of dense affectance matrices keyed by a fingerprint
	// of the power vector's values: the scheduling/capacity loops call the
	// affectance routines with one power assignment many times over, and
	// workloads comparing power schemes (uniform / linear / mean /
	// oblivious search) alternate among a handful.
	affMu    sync.Mutex
	affTick  uint64
	affCache [affCacheSlots]affEntry
}

// affCacheSlots is the affectance LRU capacity: enough for the power
// schemes a comparison workload alternates among, small enough that stale
// dense matrices don't pin memory.
const affCacheSlots = 4

// affEntry is one affectance LRU slot. fp is the fast reject; p is the
// retained copy that confirms a fingerprint match, so hash collisions cost
// a recompute, never a wrong matrix.
type affEntry struct {
	fp    uint64
	p     Power
	aff   *Affectances
	stamp uint64 // last-use tick; 0 marks an empty slot
}

// Affectances returns the dense affectance cache for p, recomputing only on
// an LRU miss. The O(links²) build runs outside the cache lock, so a miss
// never stalls concurrent hits; two goroutines missing on the same power
// may both compute, and the first insert wins. Callers must not mutate p
// after passing it here.
func (s *System) Affectances(p Power) *Affectances {
	a, _ := s.AffectancesCtx(context.Background(), p)
	return a
}

// AffectancesCtx is Affectances with cooperative cancellation of the
// O(links²) build on a cache miss; a cancelled build caches nothing and
// returns ctx.Err(). Cache hits never block on ctx.
func (s *System) AffectancesCtx(ctx context.Context, p Power) (*Affectances, error) {
	fp := powerFingerprint(p)
	s.affMu.Lock()
	if a := s.affLookup(fp, p); a != nil {
		s.affMu.Unlock()
		return a, nil
	}
	s.affMu.Unlock()
	aff, err := ComputeAffectancesCtx(ctx, s, p)
	if err != nil {
		return nil, err
	}
	s.affMu.Lock()
	defer s.affMu.Unlock()
	if a := s.affLookup(fp, p); a != nil {
		return a, nil // lost the race: share the first insert's matrix
	}
	victim := 0
	for i := 1; i < affCacheSlots; i++ {
		if s.affCache[i].stamp < s.affCache[victim].stamp {
			victim = i
		}
	}
	s.affTick++
	s.affCache[victim] = affEntry{fp: fp, p: append(Power(nil), p...), aff: aff, stamp: s.affTick}
	return aff, nil
}

// affLookup returns the cached matrix for (fp, p) and refreshes its LRU
// stamp, or nil on a miss. The caller must hold affMu.
func (s *System) affLookup(fp uint64, p Power) *Affectances {
	for i := range s.affCache {
		e := &s.affCache[i]
		if e.aff != nil && e.fp == fp && powerEqual(e.p, p) {
			s.affTick++
			e.stamp = s.affTick
			return e.aff
		}
	}
	return nil
}

// powerFingerprint hashes a power vector's length and float bits
// (SplitMix64 mixing), the LRU key of the affectance cache.
func powerFingerprint(p Power) uint64 {
	h := uint64(len(p))*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for _, v := range p {
		h ^= math.Float64bits(v)
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

func powerEqual(a, b Power) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Option configures a System.
type Option func(*System)

// WithNoise sets the ambient noise N (default 0).
func WithNoise(n float64) Option {
	return func(s *System) { s.noise = n }
}

// WithBeta sets the SINR threshold β (default 1).
func WithBeta(b float64) Option {
	return func(s *System) { s.beta = b }
}

// WithZeta supplies a precomputed metricity value, skipping the O(n³)
// computation (e.g. ζ = α for geometric spaces).
func WithZeta(z float64) Option {
	return func(s *System) {
		if !s.metOK {
			s.metOK = true
			s.zeta = z
			s.qm = core.NewQuasiMetric(s.space, z)
		}
	}
}

// WithZetaFunc supplies a lazy metricity source consulted instead of the
// exact scan on first use (Engine's sampled-estimator routing: the
// estimate is only paid for when ζ is actually consumed). A WithZeta value
// takes precedence; fn runs once per (in)validation cycle.
func WithZetaFunc(fn func() float64) Option {
	return WithZetaCtxFunc(func(context.Context) (float64, error) { return fn(), nil })
}

// WithZetaCtxFunc is WithZetaFunc for cancellable sources: fn receives the
// caller's context (ZetaCtx and the other *Ctx entry points thread theirs;
// the non-ctx forms pass context.Background()). A returned error leaves
// the metricity uncached so a later call can retry.
func WithZetaCtxFunc(fn func(context.Context) (float64, error)) Option {
	return func(s *System) { s.zetaFn = fn }
}

// NewSystem validates and builds a system. Links must reference distinct
// in-range nodes; β must be at least 1 and noise non-negative.
func NewSystem(space core.Space, links []Link, opts ...Option) (*System, error) {
	if space == nil {
		return nil, errors.New("sinr: nil decay space")
	}
	n := space.N()
	for i, l := range links {
		if l.Sender < 0 || l.Sender >= n || l.Receiver < 0 || l.Receiver >= n {
			return nil, fmt.Errorf("sinr: link %d references node outside [0,%d)", i, n)
		}
		if l.Sender == l.Receiver {
			return nil, fmt.Errorf("sinr: link %d has sender == receiver", i)
		}
	}
	s := &System{
		space: space,
		links: append([]Link(nil), links...),
		beta:  1,
	}
	for _, o := range opts {
		o(s)
	}
	if s.beta < 1 {
		return nil, fmt.Errorf("sinr: beta %v < 1", s.beta)
	}
	if s.noise < 0 {
		return nil, fmt.Errorf("sinr: negative noise %v", s.noise)
	}
	return s, nil
}

// Space returns the underlying decay space.
func (s *System) Space() core.Space { return s.space }

// Len returns the number of links.
func (s *System) Len() int { return len(s.links) }

// Link returns link v.
func (s *System) Link(v int) Link { return s.links[v] }

// Links returns a copy of the link slice.
func (s *System) Links() []Link { return append([]Link(nil), s.links...) }

// Noise returns the ambient noise N.
func (s *System) Noise() float64 { return s.noise }

// Beta returns the SINR threshold β.
func (s *System) Beta() float64 { return s.beta }

// Decay returns f_vv = f(s_v, r_v), the link's signal decay ("length" in
// decay terms). The total order ≺ on links sorts by this value.
func (s *System) Decay(v int) float64 {
	l := s.links[v]
	return s.space.F(l.Sender, l.Receiver)
}

// CrossDecay returns f_wv = f(s_w, r_v), the decay from w's sender to v's
// receiver.
func (s *System) CrossDecay(w, v int) float64 {
	return s.space.F(s.links[w].Sender, s.links[v].Receiver)
}

// Zeta returns the metricity of the underlying space, computing and caching
// it on first use.
func (s *System) Zeta() float64 {
	z, _ := s.ZetaCtx(context.Background())
	return z
}

// ZetaCtx is Zeta with cooperative cancellation: a first call pays the
// metricity computation (the exact tiled scan, or the configured lazy
// source) under ctx and returns ctx.Err() when cancelled, leaving the
// cache unset so a later call retries.
func (s *System) ZetaCtx(ctx context.Context) (float64, error) {
	if err := s.ensureMetricity(ctx); err != nil {
		return 0, err
	}
	return s.zeta, nil
}

// QuasiMetric returns the induced quasi-metric d = f^(1/ζ).
func (s *System) QuasiMetric() *core.QuasiMetric {
	s.ensureMetricity(context.Background())
	return s.qm
}

// ensureMetricity computes and caches ζ and the quasi-metric on first use
// (or after an invalidation). Concurrent callers serialize on metMu, as
// with the previous sync.Once; a cancelled computation caches nothing.
func (s *System) ensureMetricity(ctx context.Context) error {
	s.metMu.Lock()
	defer s.metMu.Unlock()
	if s.metOK {
		return nil
	}
	var (
		z   float64
		err error
	)
	if s.zetaFn != nil {
		z, err = s.zetaFn(ctx)
	} else {
		z, err = core.ZetaTolCtx(ctx, s.space, 1e-12)
	}
	if err != nil {
		return err
	}
	s.zeta = z
	s.qm = core.NewQuasiMetric(s.space, z)
	s.metOK = true
	return nil
}

// Metricity returns the cached (ζ, quasi-metric) pair without computing
// anything: ok is false when no metricity has been materialized yet (or it
// was invalidated). The session layer uses it to decide between repairing
// and lazily recomputing after a mutation.
func (s *System) Metricity() (zeta float64, qm *core.QuasiMetric, ok bool) {
	s.metMu.Lock()
	defer s.metMu.Unlock()
	return s.zeta, s.qm, s.metOK
}

// SetMetricity installs a repaired (ζ, quasi-metric) pair, replacing
// whatever was cached. A nil qm wraps the space lazily at the given
// exponent.
func (s *System) SetMetricity(zeta float64, qm *core.QuasiMetric) {
	if qm == nil {
		qm = core.NewQuasiMetric(s.space, zeta)
	}
	s.metMu.Lock()
	defer s.metMu.Unlock()
	s.zeta = zeta
	s.qm = qm
	s.metOK = true
}

// InvalidateMetricity drops the cached ζ and quasi-metric; the next
// consumer recomputes them from the (presumably mutated) space.
func (s *System) InvalidateMetricity() {
	s.metMu.Lock()
	defer s.metMu.Unlock()
	s.metOK = false
	s.qm = nil
}

// SetLinks replaces the link set (validating as NewSystem does) and
// flushes the affectance cache, whose matrices are indexed by link id.
// Callers interleaving SetLinks with readers must serialize externally —
// the public Engine holds its session write lock across mutations.
func (s *System) SetLinks(links []Link) error {
	n := s.space.N()
	for i, l := range links {
		if l.Sender < 0 || l.Sender >= n || l.Receiver < 0 || l.Receiver >= n {
			return fmt.Errorf("sinr: link %d references node outside [0,%d)", i, n)
		}
		if l.Sender == l.Receiver {
			return fmt.Errorf("sinr: link %d has sender == receiver", i)
		}
	}
	s.links = append(s.links[:0:0], links...)
	s.FlushAffectances()
	return nil
}

// FlushAffectances empties the affectance LRU (a link-set or power-model
// change made every cached matrix stale).
func (s *System) FlushAffectances() {
	s.affMu.Lock()
	defer s.affMu.Unlock()
	for i := range s.affCache {
		s.affCache[i] = affEntry{}
	}
}

// RepatchAffectances maps every occupied affectance-cache slot through
// patch (called with the slot's power vector and matrix), replacing the
// slot's matrix with the result — the decay-mutation repair path, which
// patches instead of recomputing. Slots keep their LRU stamps. patch must
// return a fresh matrix (snapshots handed out earlier must stay valid) and
// must not call back into the cache.
func (s *System) RepatchAffectances(patch func(p Power, aff *Affectances) *Affectances) {
	s.affMu.Lock()
	defer s.affMu.Unlock()
	for i := range s.affCache {
		e := &s.affCache[i]
		if e.aff != nil {
			e.aff = patch(e.p, e.aff)
		}
	}
}

// LinkLength returns d_vv = d(s_v, r_v), the link length in quasi-distance.
func (s *System) LinkLength(v int) float64 {
	s.ensureMetricity(context.Background())
	l := s.links[v]
	return s.qm.D(l.Sender, l.Receiver)
}

// LinkDist returns the quasi-distance between two links (Sec 2.4):
//
//	d(l_v, l_w) = min( d(s_v,r_w), d(s_w,r_v), d(s_v,s_w), d(r_v,r_w) ).
func (s *System) LinkDist(v, w int) float64 {
	s.ensureMetricity(context.Background())
	lv, lw := s.links[v], s.links[w]
	m := s.qm.D(lv.Sender, lw.Receiver)
	if d := s.qm.D(lw.Sender, lv.Receiver); d < m {
		m = d
	}
	if d := s.qm.D(lv.Sender, lw.Sender); d < m {
		m = d
	}
	if d := s.qm.D(lv.Receiver, lw.Receiver); d < m {
		m = d
	}
	return m
}

// Sub returns a new System restricted to the given links (same space and
// radio parameters; the cached quasi-metric is shared when available).
func (s *System) Sub(linkIdx []int) *System {
	links := make([]Link, len(linkIdx))
	for i, v := range linkIdx {
		links[i] = s.links[v]
	}
	out := &System{space: s.space, links: links, noise: s.noise, beta: s.beta, zetaFn: s.zetaFn}
	s.metMu.Lock()
	if s.metOK {
		out.metOK = true
		out.zeta = s.zeta
		out.qm = s.qm
	}
	s.metMu.Unlock()
	return out
}

// DecayOrder returns link indices sorted by non-decreasing f_vv (the ≺
// order of Sec 2.4), ties broken by index for determinism.
func (s *System) DecayOrder() []int {
	order := make([]int, len(s.links))
	for i := range order {
		order[i] = i
	}
	SortByDecay(s, order, make([]float64, len(s.links)))
	return order
}

// SortByDecay sorts the link indices in order by non-decreasing decay f_vv
// with deterministic index tie-breaks — the ≺ order every greedy routine
// processes links in. keys (length ≥ s.Len(), indexed by link id) receives
// the precomputed decay values, so the comparator makes no virtual F
// calls; callers on hot paths pass a reusable scratch slice.
func SortByDecay(s *System, order []int, keys []float64) {
	for _, v := range order {
		keys[v] = s.Decay(v)
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case keys[a] < keys[b]:
			return -1
		case keys[a] > keys[b]:
			return 1
		default:
			return a - b
		}
	})
}
