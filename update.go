package decaynet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"decaynet/internal/scenario"
	"decaynet/internal/shard"
	"decaynet/internal/sinr"
)

// Session mutation types: a Mutation is one atomic batch of edits (see
// Engine.Update); the scenario package owns the definitions so dynamic
// workload generators (ChurnStream) can emit them.
type (
	// Mutation is a batch of session edits — decay rows, single decays,
	// node moves, link removals and additions — applied atomically by
	// Engine.Update. The zero value is a no-op. Fields apply in order:
	// SetRows, SetDecays, Moves, RemoveLinks (pre-mutation indices,
	// compacting), AddLinks.
	Mutation = scenario.Mutation
	// DecayEdit overwrites one directed decay f(I, J) = F.
	DecayEdit = scenario.DecayEdit
	// NodeMove relocates one node of a geometric session.
	NodeMove = scenario.NodeMove
)

// ChurnStream generates the deterministic mutation stream of the "churn"
// scenario: replay it against an engine built with UsingScenario("churn",
// cfg) to reproduce the same dynamic session anywhere.
var ChurnStream = scenario.Churn

// ErrTieredImmutable is returned by Update (and every mutation convenience)
// on a WithTieredStorage session: tiered row storage shares entries across
// rows (near-field closure, fitted tail), so in-place edits cannot be
// repaired consistently. Rebuild the engine to change a tiered session.
var ErrTieredImmutable = errors.New("decaynet: tiered sessions are immutable (rebuild the engine to change the space or links)")

// Update applies a batch of topology and decay edits to the session under
// its version counter. The mutation is validated in full before anything
// is applied — a returned error leaves the engine untouched — and every
// cached product is then repaired incrementally rather than rebuilt:
//
//   - the dense affectance matrices in the per-power cache patch only the
//     rows and columns of links incident to a mutated node (link-set edits
//     flush them instead: new links have no cached power entries),
//   - the quasi-metric's distance matrix rematerializes only the mutated
//     rows and columns when ζ is unchanged,
//   - exact ζ and ϕ re-scan only triplets incident to dirty rows through
//     the incremental trackers; sampled estimates (WithApproxMetricity)
//     fall back to lazy re-estimation, as repairing a random estimate is
//     no cheaper than redrawing it.
//
// Decay edits (SetDecayRows / SetDecay) void an analytically known ζ
// (KnownZeta or a scenario's ζ = α): the session switches to computed
// metricity from the next read. Node moves preserve it — moving a node of
// a geometric session keeps f = d^α exact.
//
// Update serializes against every reader (they share the session lock),
// and products handed out before the update — affectance matrices, the
// quasi-metric — remain valid immutable snapshots of the pre-mutation
// session. The first Update marks the session dynamic, so subsequent
// exact ζ/ϕ computations build their trackers (see WithMutationTracking
// to pre-arm them and make even the first Update repair in place).
func (e *Engine) Update(m Mutation) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if m.IsZero() {
		return nil
	}
	if e.matrix == nil {
		return ErrTieredImmutable
	}
	n := e.matrix.N()

	// --- Validate everything before touching session state. ---
	for r, row := range m.SetRows {
		if r < 0 || r >= n {
			return fmt.Errorf("decaynet: SetRows[%d]: node outside [0,%d)", r, n)
		}
		if err := validateRow(r, row, n); err != nil {
			return err
		}
	}
	for _, ed := range m.SetDecays {
		if ed.I < 0 || ed.I >= n || ed.J < 0 || ed.J >= n {
			return fmt.Errorf("decaynet: SetDecays (%d,%d): node outside [0,%d)", ed.I, ed.J, n)
		}
		if ed.I == ed.J {
			return fmt.Errorf("decaynet: SetDecays (%d,%d): diagonal decays are fixed at zero", ed.I, ed.J)
		}
		if math.IsNaN(ed.F) || math.IsInf(ed.F, 0) || ed.F <= 0 {
			return fmt.Errorf("decaynet: SetDecays (%d,%d) = %v: decays must be positive and finite", ed.I, ed.J, ed.F)
		}
	}
	var movedPts []Point
	if len(m.Moves) > 0 {
		if e.points == nil || e.geomAlpha <= 0 {
			return errors.New("decaynet: MoveNode requires a session with plane geometry (a geometric scenario or space)")
		}
		movedPts = append([]Point(nil), e.points...)
		for _, mv := range m.Moves {
			if mv.Node < 0 || mv.Node >= n {
				return fmt.Errorf("decaynet: MoveNode %d: node outside [0,%d)", mv.Node, n)
			}
			movedPts[mv.Node] = mv.To
		}
		for _, mv := range m.Moves {
			for j, p := range movedPts {
				if j == mv.Node {
					continue
				}
				if p == movedPts[mv.Node] {
					return fmt.Errorf("decaynet: MoveNode %d to (%v,%v) coincides with node %d", mv.Node, mv.To.X, mv.To.Y, j)
				}
				// The recomputed decay must stay a valid Def 2.1 entry:
				// extreme coordinates overflow d^α to +Inf (or underflow
				// to 0), which would otherwise fail deep in the apply
				// phase with the batch half-applied.
				if f := math.Pow(movedPts[mv.Node].Dist(p), e.geomAlpha); math.IsNaN(f) || math.IsInf(f, 0) || f == 0 {
					return fmt.Errorf("decaynet: MoveNode %d to (%v,%v): decay to node %d is %v", mv.Node, mv.To.X, mv.To.Y, j, f)
				}
			}
		}
	}
	nLinks := e.sys.Len()
	removes := append([]int(nil), m.RemoveLinks...)
	sort.Ints(removes)
	for i, idx := range removes {
		if idx < 0 || idx >= nLinks {
			return fmt.Errorf("decaynet: RemoveLinks %d: link outside [0,%d)", idx, nLinks)
		}
		if i > 0 && removes[i-1] == idx {
			return fmt.Errorf("decaynet: RemoveLinks lists link %d twice", idx)
		}
	}
	for i, l := range m.AddLinks {
		if l.Sender < 0 || l.Sender >= n || l.Receiver < 0 || l.Receiver >= n || l.Sender == l.Receiver {
			return fmt.Errorf("decaynet: AddLinks[%d] (%d→%d) invalid for %d nodes", i, l.Sender, l.Receiver, n)
		}
	}

	// --- Apply space edits, collecting the dirty node set. ---
	dirtyMask := make([]bool, n)
	for r, row := range m.SetRows {
		if err := e.matrix.SetRow(r, row); err != nil {
			return err // unreachable: validated above
		}
		dirtyMask[r] = true
	}
	for _, ed := range m.SetDecays {
		if err := e.matrix.Set(ed.I, ed.J, ed.F); err != nil {
			return err // unreachable: validated above
		}
		dirtyMask[ed.I] = true
	}
	if len(m.SetRows) > 0 || len(m.SetDecays) > 0 {
		e.analytic = 0 // direct decay edits void an analytic ζ
	}
	if len(m.Moves) > 0 {
		e.points = movedPts
		for _, mv := range m.Moves {
			e.applyMove(mv.Node)
			dirtyMask[mv.Node] = true
		}
	}
	dirty := make([]int, 0, len(m.SetRows)+len(m.SetDecays)+len(m.Moves))
	for i, d := range dirtyMask {
		if d {
			dirty = append(dirty, i)
		}
	}

	// --- Apply link edits (flushes the affectance cache). ---
	linksChanged := len(removes) > 0 || len(m.AddLinks) > 0
	if linksChanged {
		links := e.sys.Links()
		for i := len(removes) - 1; i >= 0; i-- {
			idx := removes[i]
			links = append(links[:idx], links[idx+1:]...)
		}
		links = append(links, m.AddLinks...)
		if err := e.sys.SetLinks(links); err != nil {
			return err // unreachable: validated above
		}
	}

	// --- Repair the cached products against the dirty node set. ---
	if len(dirty) > 0 {
		rowsOnly := len(m.Moves) == 0
		e.be.shipUpdate(dirty, rowsOnly)
		e.repairMetricity(dirty, rowsOnly)
		e.repairPhi(dirty, rowsOnly)
		if !linksChanged {
			if dl := e.dirtyLinks(dirtyMask); len(dl) > 0 {
				e.sys.RepatchAffectances(func(p Power, aff *Affectances) *Affectances {
					return sinr.PatchAffectances(e.sys, p, aff, dl)
				})
			}
		}
	}

	// Only space mutations arm the incremental trackers: pure link churn
	// never dirties the decay matrix, so exact ζ/ϕ stay on the cheaper
	// one-shot scans.
	if len(dirty) > 0 {
		e.dynamic = true
	}
	e.version++
	return nil
}

// AddLinks appends links to the session (see Update).
func (e *Engine) AddLinks(links ...Link) error {
	return e.Update(Mutation{AddLinks: links})
}

// RemoveLinks deletes the links at the given indices; remaining links are
// compacted, shifting later indices down (see Update).
func (e *Engine) RemoveLinks(idx ...int) error {
	return e.Update(Mutation{RemoveLinks: idx})
}

// SetDecayRows overwrites whole decay rows, node → f(node, ·) of length
// N() (see Update).
func (e *Engine) SetDecayRows(rows map[int][]float64) error {
	return e.Update(Mutation{SetRows: rows})
}

// SetDecay overwrites the single directed decay f(i, j) (see Update).
func (e *Engine) SetDecay(i, j int, f float64) error {
	return e.Update(Mutation{SetDecays: []DecayEdit{{I: i, J: j, F: f}}})
}

// MoveNode relocates a node of a geometric session, recomputing the decays
// in and out of it from the session's path-loss exponent (see Update).
func (e *Engine) MoveNode(node int, to Point) error {
	return e.Update(Mutation{Moves: []NodeMove{{Node: node, To: to}}})
}

// validateRow mirrors Matrix.SetRow's validation so Update can reject a
// whole mutation before applying any of it.
func validateRow(r int, row []float64, n int) error {
	if len(row) != n {
		return fmt.Errorf("decaynet: SetRows[%d]: %d entries, want %d", r, len(row), n)
	}
	for j, v := range row {
		if j == r {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("decaynet: SetRows[%d][%d] = %v: decays must be positive and finite", r, j, v)
		}
	}
	return nil
}

// applyMove recomputes row and column `node` of the session matrix from
// the updated geometry, evaluating exactly the expression a fresh
// GeometricSpace would: f = d(p_i, p_j)^α.
func (e *Engine) applyMove(node int) {
	n := e.matrix.N()
	pn := e.points[node]
	row := make([]float64, n)
	for j := 0; j < n; j++ {
		if j == node {
			continue
		}
		row[j] = math.Pow(pn.Dist(e.points[j]), e.geomAlpha)
	}
	// Positions were validated distinct, so every entry is positive.
	if err := e.matrix.SetRow(node, row); err != nil {
		panic("decaynet: geometric row invalid: " + err.Error())
	}
	for i := 0; i < n; i++ {
		if i == node {
			continue
		}
		if err := e.matrix.Set(i, node, math.Pow(e.points[i].Dist(pn), e.geomAlpha)); err != nil {
			panic("decaynet: geometric column invalid: " + err.Error())
		}
	}
}

// repairMetricity re-establishes the cached (ζ, quasi-metric) pair after
// the space mutated on the dirty nodes: analytic sessions keep ζ and patch
// the quasi-metric, tracker-backed sessions repair ζ incrementally (and
// still patch the quasi-metric when ζ came out unchanged), everything else
// invalidates and recomputes lazily.
func (e *Engine) repairMetricity(dirty []int, rowsOnly bool) {
	z, qm, ok := e.sys.Metricity()
	if ok && e.analytic > 0 {
		e.sys.SetMetricity(z, qm.PatchedCopy(dirty, rowsOnly))
		return
	}
	nz, repaired := e.repairTracker(shard.Zeta, &e.zt, dirty, rowsOnly)
	switch {
	case !ok || !repaired:
		// Untracked, sampled or failed: invalidate; the next read
		// recomputes (building the tracker, now that the session is
		// dynamic, unless it routes through the sampled estimators).
		e.sys.InvalidateMetricity()
		e.zetaSamples.Store(0)
		e.zetaEst.Store(nil)
	case nz == z:
		e.sys.SetMetricity(z, qm.PatchedCopy(dirty, rowsOnly))
	default:
		e.sys.SetMetricity(nz, nil)
	}
}

// repairPhi repairs or invalidates the cached φ.
func (e *Engine) repairPhi(dirty []int, rowsOnly bool) {
	e.phiMu.Lock()
	defer e.phiMu.Unlock()
	v, repaired := e.repairTracker(shard.Varphi, &e.vt, dirty, rowsOnly)
	if e.phiOK && repaired {
		e.phi = math.Log2(v)
		return
	}
	e.phiOK = false
	e.phiEst = nil
}

// repairTracker repairs the tracker of p in *t, if the session has one,
// through the backend, and returns the repaired value. Update carries no
// context: the repair runs to completion under the session write lock.
// Without a tracker, or when the repair fails (a closed remote session),
// it drops the tracker and the replica's scan state of p and reports
// false, and the caller invalidates its cached value.
func (e *Engine) repairTracker(p shard.Param, t *shard.Tracker, dirty []int, rowsOnly bool) (float64, bool) {
	if *t != nil {
		v, err := e.be.Repair(context.Background(), p, *t, dirty, rowsOnly)
		if err == nil {
			return v, true
		}
	}
	*t = nil
	e.be.invalidate(p)
	return 0, false
}

// dirtyLinks lists the links whose sender or receiver is a dirty node —
// exactly the rows and columns of the affectance matrices that changed.
func (e *Engine) dirtyLinks(dirtyMask []bool) []int {
	var dl []int
	for v := 0; v < e.sys.Len(); v++ {
		l := e.sys.Link(v)
		if dirtyMask[l.Sender] || dirtyMask[l.Receiver] {
			dl = append(dl, v)
		}
	}
	return dl
}
