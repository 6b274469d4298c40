package core

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"decaynet/internal/par"
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
// τ) does a full rescan run and reset the floor. Values are computed by
// the same kernels as the one-shot scans, so the tracked maximum is
// bit-identical to a from-scratch computation.
//
// The scan itself — patching, extrema, per-row collection — lives on the
// ZetaScanState / VarphiScanState replicas (shardscan.go), so a sharding
// coordinator can run the same phases across row-range workers: build a
// tracker from per-shard maxima and band collections (NewZetaTrackerFrom),
// and repair it from per-shard dirty-incident collections (PatchAndDrop +
// AbsorbRepair + Reseed). The pool-parallel Repair / rescan below and the
// sharded phases execute identical per-triplet expressions over identical
// replicas, so both routes track bit-identical values.

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
func VarphiBandFloor(vmax float64) float64 { return bandFloor(vmax, varphiFloorValue) }

// ZetaTracker maintains the metricity ζ of a dense decay space under row /
// column mutations. It scans through a ZetaScanState replica (its own
// log-decay matrix plus pruning extrema, patched on repair); the
// underlying Matrix is read on construction and on each Repair and must
// reflect the mutation before Repair is called.
type ZetaTracker struct {
	st *ZetaScanState

	zeta  float64
	floor float64 // τ: the set holds every triplet with ζ > τ
	set   []BandTriplet
}

// NewZetaTracker runs the full scan, fixes the candidate floor a margin
// below the maximum, and collects the candidate band. ctx is polled
// between rows; a cancelled build returns ctx.Err().
func NewZetaTracker(ctx context.Context, m *Matrix, tol float64) (*ZetaTracker, error) {
	t := &ZetaTracker{st: NewZetaScanState(m, tol), zeta: DefaultZetaFloor, floor: DefaultZetaFloor}
	if t.st.n < 3 {
		return t, ctx.Err()
	}
	if err := t.rescan(ctx); err != nil {
		return nil, err
	}
	return t, nil
}

// NewZetaTrackerFrom seeds a tracker from the results of an externally
// driven full scan over the given replica: the exact maximum zmax and the
// band of triplets above ZetaBandFloor(zmax), typically concatenated from
// per-shard collection phases. The tracker takes ownership of the state
// (sharing it with the scanning workers is fine — repairs patch it under
// the session lock).
func NewZetaTrackerFrom(st *ZetaScanState, zmax float64, band []BandTriplet) *ZetaTracker {
	t := &ZetaTracker{st: st, zeta: zmax, floor: ZetaBandFloor(zmax), set: band}
	t.set, t.floor = trim(t.set, t.floor)
	return t
}

// State returns the tracker's scan replica (shared with shard workers on
// sharded sessions).
func (t *ZetaTracker) State() *ZetaScanState { return t.st }

// Zeta returns the tracked metricity.
func (t *ZetaTracker) Zeta() float64 { return t.zeta }

// Floor returns the candidate-band floor τ — the threshold an external
// repair phase must collect above.
func (t *ZetaTracker) Floor() float64 { return t.floor }

// PatchAndDrop applies the mutation prefix of a repair without scanning:
// the replica's log matrix and extrema are patched against the mutated
// Matrix and the candidate set drops the members whose value may have
// changed (under rowsOnly, those whose row X or Z is dirty). An external
// (sharded) repair then collects the same triplet set above Floor with
// ZetaScanState.RepairRange, given the same rowsOnly, and hands it to
// AbsorbRepair. The returned dirty-node mask (nil when nothing to do) is
// the one the collection scans consume.
func (t *ZetaTracker) PatchAndDrop(dirty []int, rowsOnly bool) []bool {
	if t.st.n < 3 || len(dirty) == 0 {
		return nil
	}
	t.st.PatchRows(dirty, rowsOnly)
	mask := dirtyNodeMask(t.st.n, dirty)
	t.set = dropDirtyBand(t.set, mask, rowsOnly, false) // ζ reads rows X and Z
	return mask
}

// dirtyNodeMask builds the dirty-node membership mask the repair scans
// consume.
func dirtyNodeMask(n int, dirty []int) []bool {
	mask := make([]bool, n)
	for _, r := range dirty {
		mask[r] = true
	}
	return mask
}

// AbsorbRepair merges an externally collected dirty-incident band into the
// candidate set and re-derives the tracked ζ. needRescan reports the
// drained-band case — the maximum fell below the floor — in which the
// caller must run a full two-phase scan (max + band) and Reseed; the
// tracked value is not valid until then.
func (t *ZetaTracker) AbsorbRepair(band []BandTriplet) (zeta float64, needRescan bool) {
	t.set = append(t.set, band...)
	if len(t.set) == 0 && t.floor > DefaultZetaFloor {
		return t.zeta, true
	}
	t.set, t.floor = trim(t.set, t.floor)
	t.zeta = maxBand(t.set, DefaultZetaFloor)
	return t.zeta, false
}

// Reseed installs the results of a full external rescan (see
// NewZetaTrackerFrom): the exact maximum and the band above
// ZetaBandFloor(zmax).
func (t *ZetaTracker) Reseed(zmax float64, band []BandTriplet) {
	t.zeta = zmax
	t.floor = ZetaBandFloor(zmax)
	t.set, t.floor = trim(band, t.floor)
}

// Repair re-establishes the tracked ζ after the underlying matrix mutated
// on the rows and columns of the given nodes, and returns the new value.
// rowsOnly declares that only the dirty *rows* changed (SetRows / SetDecay
// mutations; node moves also rewrite columns): the clean rows' log
// entries and extrema are then provably unchanged and skipped, and since
// a ζ triplet (x, y, z) reads rows x and z only, a clean row x rescans
// just its dirty-z pairs and keeps the candidates whose X and Z are clean
// — their stored values are exact. Without rowsOnly every triplet incident
// to a dirty node is re-scanned. A drained candidate set triggers the full
// rescan fallback.
func (t *ZetaTracker) Repair(dirty []int, rowsOnly bool) float64 {
	if t.st.n < 3 || len(dirty) == 0 {
		return t.zeta
	}
	n := t.st.n
	mask := t.PatchAndDrop(dirty, rowsOnly)

	// Collect the dirty-incident triplets that reach the candidate band.
	var mu sync.Mutex
	tau := t.floor
	invT := 1 / tau
	amgm := 2 * math.Ln2 * tau
	par.ForChunked(n, func(lo, hi int) {
		var local []BandTriplet
		zList := make([]int32, 0, n)
		for x := lo; x < hi; x++ {
			local, zList = t.st.repairRow(local, x, dirty, mask, rowsOnly, invT, amgm, zList)
		}
		if len(local) > 0 {
			mu.Lock()
			t.set = append(t.set, local...)
			mu.Unlock()
		}
	})

	if len(t.set) == 0 && t.floor > DefaultZetaFloor {
		// The maximum fell through the candidate band: full rescan.
		t.rescan(context.Background())
		return t.zeta
	}
	t.set, t.floor = trim(t.set, t.floor)
	t.zeta = maxBand(t.set, DefaultZetaFloor)
	return t.zeta
}

// rescan runs the full-matrix pass: an exact maximum scan over the cached
// log matrix followed by a collection pass a margin below it.
func (t *ZetaTracker) rescan(ctx context.Context) error {
	zmax, err := t.fullMax(ctx)
	if err != nil {
		return err
	}
	t.zeta = zmax
	t.floor = ZetaBandFloor(zmax)
	t.set = t.set[:0]
	if zmax <= DefaultZetaFloor {
		return ctx.Err() // nothing above the floor to collect
	}
	var mu sync.Mutex
	invT := 1 / t.floor
	amgm := 2 * math.Ln2 * t.floor
	n := t.st.n
	err = par.ForChunkedCtx(ctx, n, func(lo, hi int) {
		var local []BandTriplet
		for x := lo; x < hi; x++ {
			if ctx.Err() != nil {
				return
			}
			rowX := t.st.logs[x*n : (x+1)*n]
			for z := 0; z < n; z++ {
				if z != x {
					local = t.st.collectPair(local, rowX, x, z, invT, amgm)
				}
			}
		}
		if len(local) > 0 {
			mu.Lock()
			t.set = append(t.set, local...)
			mu.Unlock()
		}
	})
	if err != nil {
		return err
	}
	t.set, t.floor = trim(t.set, t.floor)
	return nil
}

// fullMax is the exact tiled maximum scan over the tracker's cached log
// matrix — ZetaTol's kernel minus the symmetric halving (the tracker
// serves mutated, generally asymmetric sessions).
func (t *ZetaTracker) fullMax(ctx context.Context) (float64, error) {
	st := t.st
	n := st.n
	var bestBits uint64Max
	bestBits.store(DefaultZetaFloor)
	err := par.ForTilesCtx(ctx, n, tripletTile(n), func(xlo, xhi, zlo, zhi int) {
		local := bestBits.load()
		invT := 1 / local
		amgm := 2 * math.Ln2 * local
		for x := xlo; x < xhi; x++ {
			if ctx.Err() != nil {
				return
			}
			rowX := st.logs[x*n : (x+1)*n]
			maxX := st.rowMax[x]
			if g := bestBits.load(); g > local {
				local = g
				invT = 1 / local
				amgm = 2 * math.Ln2 * local
			}
			for z := zlo; z < zhi; z++ {
				if z == x {
					continue
				}
				b := rowX[z]
				if b+st.rowMin[z]+amgm >= 2*maxX {
					continue
				}
				if math.Exp((b-maxX)*invT)+math.Exp((st.rowMin[z]-maxX)*invT) >= 1 {
					continue
				}
				rowZ := st.logs[z*n : (z+1)*n]
				aMin := (b + st.rowMin[z] + amgm) / 2
				for y := 0; y < n; y++ {
					if y == x || y == z {
						continue
					}
					a := rowX[y]
					if a <= aMin {
						continue
					}
					c := rowZ[y]
					if a <= c || b+c+amgm >= 2*a {
						continue
					}
					if math.Exp((b-a)*invT)+math.Exp((c-a)*invT) >= 1 {
						continue
					}
					if zt := zetaTriplet(a, b, c, st.tol); zt > local {
						local = zt
						invT = 1 / local
						amgm = 2 * math.Ln2 * local
						aMin = (b + st.rowMin[z] + amgm) / 2
						bestBits.storeMax(zt)
					}
				}
			}
		}
		bestBits.storeMax(local)
	})
	if err != nil {
		return 0, err
	}
	return bestBits.load(), nil
}

// VarphiTracker maintains the variant parameter ϕ = max f(x,z) /
// (f(x,y) + f(y,z)) under mutations, with the same candidate-set scheme as
// ZetaTracker. It reads the tracked Matrix directly through its
// VarphiScanState (no private copy): the session layer mutates the matrix
// first and then calls Repair with the dirty node set.
type VarphiTracker struct {
	st *VarphiScanState

	varphi float64
	floor  float64
	set    []BandTriplet
}

// varphiFloorValue is ϕ's universal lower bound (attained on uniform
// spaces).
const varphiFloorValue = 0.5

// VarphiFloor is ϕ's universal lower bound (attained on uniform spaces) —
// the ϕ analogue of DefaultZetaFloor, exported so the sharded scans merge
// against the same floor as the pool kernels.
const VarphiFloor = varphiFloorValue

// NewVarphiTracker runs the full ϕ scan and collects the candidate band.
// ctx is polled between rows; a cancelled build returns ctx.Err().
func NewVarphiTracker(ctx context.Context, m *Matrix) (*VarphiTracker, error) {
	t := &VarphiTracker{st: NewVarphiScanState(m), varphi: varphiFloorValue, floor: varphiFloorValue}
	if t.st.n < 3 {
		return t, ctx.Err()
	}
	if err := t.rescan(ctx); err != nil {
		return nil, err
	}
	return t, nil
}

// NewVarphiTrackerFrom seeds a tracker from an externally driven full scan
// (see NewZetaTrackerFrom): the exact maximum vmax and the band above
// VarphiBandFloor(vmax).
func NewVarphiTrackerFrom(st *VarphiScanState, vmax float64, band []BandTriplet) *VarphiTracker {
	t := &VarphiTracker{st: st, varphi: vmax, floor: VarphiBandFloor(vmax), set: band}
	t.set, t.floor = trim(t.set, t.floor)
	return t
}

// State returns the tracker's scan replica.
func (t *VarphiTracker) State() *VarphiScanState { return t.st }

// Varphi returns the tracked parameter.
func (t *VarphiTracker) Varphi() float64 { return t.varphi }

// Floor returns the candidate-band floor τ.
func (t *VarphiTracker) Floor() float64 { return t.floor }

// PatchAndDrop applies the mutation prefix of a repair without scanning
// (see ZetaTracker.PatchAndDrop); under rowsOnly it drops the candidates
// whose row X or Y is dirty.
func (t *VarphiTracker) PatchAndDrop(dirty []int, rowsOnly bool) []bool {
	if t.st.n < 3 || len(dirty) == 0 {
		return nil
	}
	t.st.PatchRows(dirty, rowsOnly)
	mask := dirtyNodeMask(t.st.n, dirty)
	t.set = dropDirtyBand(t.set, mask, rowsOnly, true) // ϕ reads rows X and Y
	return mask
}

// AbsorbRepair merges an externally collected dirty-incident band and
// re-derives the tracked ϕ (see ZetaTracker.AbsorbRepair).
func (t *VarphiTracker) AbsorbRepair(band []BandTriplet) (varphi float64, needRescan bool) {
	t.set = append(t.set, band...)
	if len(t.set) == 0 && t.floor > varphiFloorValue {
		return t.varphi, true
	}
	t.set, t.floor = trim(t.set, t.floor)
	t.varphi = maxBand(t.set, varphiFloorValue)
	return t.varphi, false
}

// Reseed installs the results of a full external rescan.
func (t *VarphiTracker) Reseed(vmax float64, band []BandTriplet) {
	t.varphi = vmax
	t.floor = VarphiBandFloor(vmax)
	t.set, t.floor = trim(band, t.floor)
}

// Repair re-establishes the tracked ϕ after the matrix mutated on the rows
// and columns of the given nodes, and returns the new value. rowsOnly
// declares a row-only mutation (see ZetaTracker.Repair): clean rows'
// extrema are then provably unchanged and skipped, and since a ϕ triplet
// (x, y, z) reads rows x and y only, a clean row x rescans just its
// dirty-y pairs and skips the strided dirty-z column walk, keeping the
// candidates whose X and Y are clean.
func (t *VarphiTracker) Repair(dirty []int, rowsOnly bool) float64 {
	if t.st.n < 3 || len(dirty) == 0 {
		return t.varphi
	}
	n := t.st.n
	mask := t.PatchAndDrop(dirty, rowsOnly)
	var mu sync.Mutex
	tau := t.floor
	par.ForChunked(n, func(lo, hi int) {
		var local []BandTriplet
		for x := lo; x < hi; x++ {
			local = t.st.repairRow(local, x, dirty, mask, rowsOnly, tau)
		}
		if len(local) > 0 {
			mu.Lock()
			t.set = append(t.set, local...)
			mu.Unlock()
		}
	})
	if len(t.set) == 0 && t.floor > varphiFloorValue {
		t.rescan(context.Background())
		return t.varphi
	}
	t.set, t.floor = trim(t.set, t.floor)
	t.varphi = maxBand(t.set, varphiFloorValue)
	return t.varphi
}

// rescan runs the full ϕ pass: exact maximum, then candidate collection a
// margin below it.
func (t *VarphiTracker) rescan(ctx context.Context) error {
	vmax, err := t.fullMax(ctx)
	if err != nil {
		return err
	}
	t.varphi = vmax
	t.floor = VarphiBandFloor(vmax)
	t.set = t.set[:0]
	if vmax <= varphiFloorValue {
		return ctx.Err()
	}
	var mu sync.Mutex
	tau := t.floor
	n := t.st.n
	err = par.ForChunkedCtx(ctx, n, func(lo, hi int) {
		var local []BandTriplet
		for x := lo; x < hi; x++ {
			if ctx.Err() != nil {
				return
			}
			rowX := t.st.m.row(x)
			for y := 0; y < n; y++ {
				if y != x {
					local = t.st.collectPair(local, rowX, x, y, tau)
				}
			}
		}
		if len(local) > 0 {
			mu.Lock()
			t.set = append(t.set, local...)
			mu.Unlock()
		}
	})
	if err != nil {
		return err
	}
	t.set, t.floor = trim(t.set, t.floor)
	return nil
}

// fullMax is the exact tiled ϕ maximum over the tracked matrix — Varphi's
// kernel minus the symmetric halving.
func (t *VarphiTracker) fullMax(ctx context.Context) (float64, error) {
	st := t.st
	n := st.n
	var bestBits uint64Max
	bestBits.store(varphiFloorValue)
	err := par.ForTilesCtx(ctx, n, tripletTile(n), func(xlo, xhi, ylo, yhi int) {
		best := bestBits.load()
		for x := xlo; x < xhi; x++ {
			if ctx.Err() != nil {
				return
			}
			rowX := st.m.row(x)
			maxX := st.rowMaxF[x]
			if g := bestBits.load(); g > best {
				best = g
			}
			for y := ylo; y < yhi; y++ {
				if y == x {
					continue
				}
				fxy := rowX[y]
				if maxX <= best*(fxy+st.rowMinF[y]) {
					continue
				}
				rowY := st.m.row(y)
				for z := 0; z < n; z++ {
					if z == x || z == y {
						continue
					}
					if r := rowX[z] / (fxy + rowY[z]); r > best {
						best = r
						bestBits.storeMax(r)
					}
				}
			}
		}
		bestBits.storeMax(best)
	})
	if err != nil {
		return 0, err
	}
	return bestBits.load(), nil
}

// uint64Max is a small atomic float64 running-maximum (the shared-progress
// cell of the tiled scans).
type uint64Max struct{ bits atomic.Uint64 }

func (u *uint64Max) store(v float64) { u.bits.Store(math.Float64bits(v)) }
func (u *uint64Max) load() float64   { return math.Float64frombits(u.bits.Load()) }
func (u *uint64Max) storeMax(v float64) {
	storeMax(&u.bits, v)
}

// colMinima returns the smallest off-diagonal entry of each column of an
// n×n row-major matrix — the column-side pruning bound of the partial
// repair scans. Row chunks reduce into per-chunk minima merged under a
// lock, keeping the traversal row-major.
func colMinima(vals []float64, n int) []float64 {
	mins := make([]float64, n)
	for j := range mins {
		mins[j] = math.Inf(1)
	}
	var mu sync.Mutex
	par.ForChunked(n, func(lo, hi int) {
		local := make([]float64, n)
		for j := range local {
			local[j] = math.Inf(1)
		}
		for i := lo; i < hi; i++ {
			row := vals[i*n : (i+1)*n]
			for j, v := range row {
				if j != i && v < local[j] {
					local[j] = v
				}
			}
		}
		mu.Lock()
		for j, v := range local {
			if v < mins[j] {
				mins[j] = v
			}
		}
		mu.Unlock()
	})
	return mins
}

// refreshColMinima recomputes mins[j] for the given columns only — one
// strided pass per column, O(|cols|·n) against colMinima's O(n²).
func refreshColMinima(mins, vals []float64, n int, cols []int) {
	for _, j := range cols {
		mn := math.Inf(1)
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			if v := vals[i*n+j]; v < mn {
				mn = v
			}
		}
		mins[j] = mn
	}
}
