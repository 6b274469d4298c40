package core

import (
	"context"
	"slices"
)

// Incremental maintenance of the triplet-scan parameters for mutable
// sessions. A tracker maintains a *candidate set*: every ordered triplet
// whose value (ζ for ZetaTracker, the ϕ ratio for VarphiTracker) exceeds a
// retained floor τ, chosen a margin below the maximum at the last full
// scan. The tracked parameter is the maximum over the set.
//
// After a mutation that dirtied a node set M (rows and/or columns of the
// decay matrix), a triplet's value changed only if one of its three
// indices lies in M, so Repair drops the set's dirty-incident members and
// re-scans exactly the dirty-incident triplets — full rows for x ∈ M,
// the (x, ·, z ∈ M) and (x, y ∈ M, ·) slices for clean x — collecting
// values above the *same* floor τ. A row-only mutation (SetRows /
// SetDecays; only node moves rewrite columns) narrows this further: a ζ
// triplet (x, y, z) reads rows x and z only (f(x,y), f(x,z), f(z,y)) and
// a ϕ triplet rows x and y only (f(x,z), f(x,y), f(y,z)), so its value
// changed only if one of those two rows is dirty. Repair then drops only
// the candidates with a dirty read row and, for clean x, rescans only the
// (x, ·, z ∈ M) pairs for ζ and the (x, y ∈ M, ·) pairs for ϕ. A kept
// candidate reads untouched entries, so its stored value is bit-identical
// to a rescan's and the set is still exactly "every triplet above τ".
// Because τ sits just below the maximum, the whole-pair prunes discharge
// almost every pair without touching an inner loop: the repair is
// O(|M|·n) pair probes plus a handful of survivors, against the O(n³)
// full scan. A mutation that lowers the maximum simply pops to the next
// candidate; only when the set drains completely (the maximum fell below
// τ) does a full rescan run and reset the floor. The full scan, the
// collection and the repair run the same ζ and ϕ pair kernels as the
// one-shot scans (shardscan.go), each of which keeps exactly the triplets
// above its bound, so the tracked maximum and the band are bit-identical
// to a from-scratch computation and to the per-pair oracles.
//
// The scan itself — patching, extrema, per-row collection — lives on the
// ZetaScanState / VarphiScanState replicas, so a sharding coordinator can
// run the same phases across row-range workers: build a tracker from
// per-shard maxima and band collections (NewZetaTrackerFrom), and repair
// it from per-shard dirty-incident collections (PatchAndDrop +
// AbsorbRepair + Reseed). ZetaTracker and VarphiTracker share that
// machinery (tracker) and differ only in their state and floor.

// candMargin is the relative width of the candidate band: the floor is
// (1 − candMargin) · max. Wider bands survive deeper decreases before a
// full rescan but collect more candidates.
const candMargin = 0.05

// candCap bounds the candidate set; degenerate spaces with huge near-tied
// bands are trimmed to the strongest candKeep members and the floor is
// raised to match, so pathological instances degrade to more frequent
// rescans instead of unbounded memory.
const (
	candCap  = 1 << 20
	candKeep = 1 << 16
)

// trim enforces the candidate cap: keep the strongest candKeep members and
// raise the floor to the weakest kept value (the set stays complete above
// the new floor).
func trim(set []BandTriplet, floor float64) ([]BandTriplet, float64) {
	if len(set) <= candCap {
		return set, floor
	}
	slices.SortFunc(set, func(a, b BandTriplet) int {
		switch {
		case a.Val > b.Val:
			return -1
		case a.Val < b.Val:
			return 1
		default:
			return 0
		}
	})
	set = set[:candKeep:candKeep]
	return set, set[len(set)-1].Val
}

// bandFloor positions the candidate floor a margin below the maximum,
// never below the parameter's universal floor.
func bandFloor(max, universal float64) float64 {
	f := max - candMargin*max
	if f < universal {
		return universal
	}
	return f
}

// ZetaBandFloor returns the candidate-band floor a tracker retains for a
// full-scan maximum of zmax — the threshold a sharded band-collection
// phase must use so NewZetaTrackerFrom seeds a complete set.
func ZetaBandFloor(zmax float64) float64 { return bandFloor(zmax, DefaultZetaFloor) }

// VarphiBandFloor is ZetaBandFloor's ϕ analogue.
func VarphiBandFloor(vmax float64) float64 { return bandFloor(vmax, VarphiFloor) }

// bandState is a scan state as a tracker drives it: ZetaScanState or
// VarphiScanState, scanned on the pool.
type bandState interface {
	N() int
	PatchRows(dirty []int, rowsOnly bool)
	MaxRange(ctx context.Context, xlo, xhi int, sym, pool bool) (float64, error)
	CollectRange(ctx context.Context, xlo, xhi int, floor float64, pool bool) ([]BandTriplet, error)
	RepairRange(ctx context.Context, xlo, xhi int, dirty []int, mask []bool, rowsOnly bool, floor float64, pool bool) ([]BandTriplet, error)
}

// tracker is the candidate-band machinery ZetaTracker and VarphiTracker
// share: the tracked maximum, the floor τ and every triplet above it.
type tracker struct {
	st        bandState
	universal float64 // the parameter's floor: DefaultZetaFloor or VarphiFloor
	readsY    bool    // ϕ: a triplet reads rows X and Y (ζ: X and Z)

	max   float64
	floor float64 // τ: the set holds every triplet with a value > τ
	set   []BandTriplet
}

// Floor returns the candidate-band floor τ — the threshold an external
// repair phase must collect above.
func (t *tracker) Floor() float64 { return t.floor }

// PatchAndDrop applies the mutation prefix of a repair without scanning:
// the scan state is patched against the mutated Matrix and the candidate
// set drops the members whose value may have changed (under rowsOnly,
// those whose second read row — Z for ζ, Y for ϕ — or row X is dirty). An
// external (sharded) repair then collects the same triplet set above Floor
// with the state's RepairRange, given the same rowsOnly, and hands it to
// AbsorbRepair. The returned dirty-node mask (nil when nothing to do) is
// the one the collection scans consume.
func (t *tracker) PatchAndDrop(dirty []int, rowsOnly bool) []bool {
	if t.st.N() < 3 || len(dirty) == 0 {
		return nil
	}
	t.st.PatchRows(dirty, rowsOnly)
	mask := dirtyNodeMask(t.st.N(), dirty)
	t.set = dropDirtyBand(t.set, mask, rowsOnly, t.readsY)
	return mask
}

// AbsorbRepair merges an externally collected dirty-incident band into the
// candidate set and re-derives the tracked value. needRescan reports the
// drained-band case — the maximum fell below the floor — in which the
// caller must run a full two-phase scan (max + band) and Reseed; the
// tracked value is not valid until then.
func (t *tracker) AbsorbRepair(band []BandTriplet) (value float64, needRescan bool) {
	t.set = append(t.set, band...)
	if len(t.set) == 0 && t.floor > t.universal {
		return t.max, true
	}
	t.set, t.floor = trim(t.set, t.floor)
	t.max = maxBand(t.set, t.universal)
	return t.max, false
}

// Reseed installs the results of a full rescan: the exact maximum and the
// band above its band floor (ZetaBandFloor / VarphiBandFloor).
func (t *tracker) Reseed(max float64, band []BandTriplet) {
	t.max = max
	t.set, t.floor = trim(band, bandFloor(max, t.universal))
}

// Repair re-establishes the tracked value after the underlying matrix
// mutated on the rows and columns of the given nodes, and returns it.
// rowsOnly declares that only the dirty *rows* changed (SetRows / SetDecay
// mutations; node moves also rewrite columns): the clean rows' derived
// data are then provably unchanged and skipped, a clean row x rescans
// just the pairs whose second read row is dirty, and the candidates whose
// read rows are clean keep their exact stored values. Without rowsOnly
// every triplet incident to a dirty node is re-scanned. A drained
// candidate set triggers the full rescan fallback.
func (t *tracker) Repair(dirty []int, rowsOnly bool) float64 {
	mask := t.PatchAndDrop(dirty, rowsOnly)
	if mask == nil {
		return t.max
	}
	band, _ := t.st.RepairRange(context.Background(), 0, t.st.N(), dirty, mask, rowsOnly, t.floor, true)
	if _, drained := t.AbsorbRepair(band); drained {
		t.rescan(context.Background())
	}
	return t.max
}

// rescan runs the full pass: the exact maximum, then the collection of
// every triplet above the band floor a margin below it.
func (t *tracker) rescan(ctx context.Context) error {
	max, err := t.st.MaxRange(ctx, 0, t.st.N(), false, true)
	if err != nil {
		return err
	}
	var band []BandTriplet
	if floor := bandFloor(max, t.universal); max > t.universal {
		if band, err = t.st.CollectRange(ctx, 0, t.st.N(), floor, true); err != nil {
			return err
		}
	}
	t.Reseed(max, band)
	return nil
}

// newTracker runs the full scan over st unless it has fewer than three
// nodes. ctx is polled between rows; a cancelled build returns ctx.Err().
func newTracker(ctx context.Context, st bandState, universal float64, readsY bool) (tracker, error) {
	t := tracker{st: st, universal: universal, readsY: readsY, max: universal, floor: universal}
	if st.N() < 3 {
		return t, ctx.Err()
	}
	return t, t.rescan(ctx)
}

// ZetaTracker maintains the metricity ζ of a dense decay space under row /
// column mutations. It scans through a ZetaScanState replica (G and row
// extrema, patched on repair); the underlying Matrix is read in place and
// must reflect the mutation before Repair is called.
type ZetaTracker struct{ tracker }

// NewZetaTracker runs the full scan, fixes the candidate floor a margin
// below the maximum, and collects the candidate band. ctx is polled
// between rows; a cancelled build returns ctx.Err().
func NewZetaTracker(ctx context.Context, m *Matrix, tol float64) (*ZetaTracker, error) {
	st, err := NewZetaScanState(ctx, m, tol)
	if err != nil {
		return nil, err
	}
	t, err := newTracker(ctx, st, DefaultZetaFloor, false)
	if err != nil {
		return nil, err
	}
	return &ZetaTracker{t}, nil
}

// NewZetaTrackerFrom seeds a tracker from the results of an externally
// driven full scan over the given replica: the exact maximum zmax and the
// band of triplets above ZetaBandFloor(zmax), typically concatenated from
// per-shard collection phases. The tracker takes ownership of the state
// (sharing it with the scanning workers is fine — repairs patch it under
// the session lock).
func NewZetaTrackerFrom(st *ZetaScanState, zmax float64, band []BandTriplet) *ZetaTracker {
	t := &ZetaTracker{tracker{st: st, universal: DefaultZetaFloor}}
	t.Reseed(zmax, band)
	return t
}

// Zeta returns the tracked metricity.
func (t *ZetaTracker) Zeta() float64 { return t.max }

// VarphiTracker maintains the variant parameter ϕ = max f(x,z) /
// (f(x,y) + f(y,z)) under mutations, with the same candidate-set scheme as
// ZetaTracker. It reads the tracked Matrix directly through its
// VarphiScanState (no private copy): the session layer mutates the matrix
// first and then calls Repair with the dirty node set.
type VarphiTracker struct{ tracker }

// VarphiFloor is ϕ's universal lower bound (attained on uniform spaces) —
// the ϕ analogue of DefaultZetaFloor, exported so the sharded scans merge
// against the same floor as the pool kernels.
const VarphiFloor = 0.5

// NewVarphiTracker runs the full ϕ scan and collects the candidate band.
// ctx is polled between rows; a cancelled build returns ctx.Err().
func NewVarphiTracker(ctx context.Context, m *Matrix) (*VarphiTracker, error) {
	t, err := newTracker(ctx, NewVarphiScanState(m), VarphiFloor, true)
	if err != nil {
		return nil, err
	}
	return &VarphiTracker{t}, nil
}

// NewVarphiTrackerFrom seeds a tracker from an externally driven full scan
// (see NewZetaTrackerFrom): the exact maximum vmax and the band above
// VarphiBandFloor(vmax).
func NewVarphiTrackerFrom(st *VarphiScanState, vmax float64, band []BandTriplet) *VarphiTracker {
	t := &VarphiTracker{tracker{st: st, universal: VarphiFloor, readsY: true}}
	t.Reseed(vmax, band)
	return t
}

// Varphi returns the tracked parameter.
func (t *VarphiTracker) Varphi() float64 { return t.max }
