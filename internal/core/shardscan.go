package core

import (
	"context"
	"math"
)

// Partial-reduction forms of the triplet kernels. A ZetaScanState /
// VarphiScanState is the replica a shard worker scans: the (log-)decay
// matrix plus the pruning extrema, with serial row-range methods —
// MaxRange, CollectRange, RepairRange — whose union over a partition of
// [0, n) reproduces exactly what the pool-parallel kernels compute. Every
// triplet value comes from the same deterministic per-triplet functions
// (zetaTriplet, the ϕ ratio), so merging per-shard maxima with max and
// concatenating per-shard bands is bit-identical to the unsharded scans:
// the reduction is associative and no partial result depends on schedule.
//
// The incremental trackers (ZetaTracker / VarphiTracker) are built on the
// same states, which is what lets a sharding coordinator seed the global
// tracker from per-shard band maxima and route repairs back through the
// shards (see internal/shard).

// BandTriplet is one candidate of a ζ/ϕ candidate band: the triplet's
// value and coordinates. It is a plain wire-format value so shard workers
// can ship collected bands back to their coordinator.
type BandTriplet struct {
	Val float64 `json:"val"`
	X   int32   `json:"x"`
	Y   int32   `json:"y"`
	Z   int32   `json:"z"`
}

// maxBand returns the largest candidate value, or floor for an empty set.
func maxBand(set []BandTriplet, floor float64) float64 {
	v := floor
	for i := range set {
		if set[i].Val > v {
			v = set[i].Val
		}
	}
	return v
}

// dropDirtyBand removes, in place, the candidates whose value a mutation
// of the dirty nodes may have changed. A triplet's value reads two rows of
// the decay matrix: rows X and Z for ζ, rows X and Y for ϕ (readsY). After
// a mutation that also rewrote columns, every candidate incident to a
// dirty node goes. After a rowsOnly mutation only the candidates with a
// dirty read row go: a kept candidate reads untouched entries only, so its
// stored value has the bits a rescan would give.
func dropDirtyBand(set []BandTriplet, mask []bool, rowsOnly, readsY bool) []BandTriplet {
	out := set[:0]
	for _, c := range set {
		second := c.Z
		if readsY {
			second = c.Y
		}
		changed := mask[c.X] || mask[second]
		if !rowsOnly {
			changed = changed || mask[c.Y] || mask[c.Z]
		}
		if !changed {
			out = append(out, c)
		}
	}
	return out
}

// ZetaScanState is the ζ scan replica: the log-decay matrix of a dense
// space plus the row/column pruning extrema, supporting serial row-range
// partial scans. The underlying Matrix is read at construction and on
// PatchRows; between patches the state is immutable and safe for
// concurrent range scans.
type ZetaScanState struct {
	m   *Matrix
	n   int
	tol float64

	logs                   []float64 // ln f, row-major
	rowMax, rowMin, colMin []float64 // off-diagonal extrema of logs
}

// NewZetaScanState materializes the log matrix and pruning extrema of m
// (parallel, O(n²)) for range scanning at bisection tolerance tol.
func NewZetaScanState(m *Matrix, tol float64) *ZetaScanState {
	n := m.N()
	s := &ZetaScanState{m: m, n: n, tol: tol}
	if n < 3 {
		return s
	}
	s.logs = logMatrix(m)
	s.rowMax, s.rowMin = rowExtrema(s.logs, n)
	s.colMin = colMinima(s.logs, n)
	return s
}

// N returns the number of nodes scanned.
func (s *ZetaScanState) N() int { return s.n }

// PatchRows refreshes the replica after the underlying matrix mutated on
// the rows (and, unless rowsOnly, columns) of the dirty nodes: dirty log
// rows are recomputed wholesale, dirty column entries per clean row, and
// the affected extrema re-derived. Callers serialize PatchRows against
// range scans (the session layer holds its write lock across repairs).
func (s *ZetaScanState) PatchRows(dirty []int, rowsOnly bool) {
	if s.n < 3 || len(dirty) == 0 {
		return
	}
	n := s.n
	mask := make([]bool, n)
	for _, r := range dirty {
		mask[r] = true
	}
	for x := 0; x < n; x++ {
		row := s.m.row(x)
		out := s.logs[x*n : (x+1)*n]
		if mask[x] {
			for j, v := range row {
				out[j] = math.Log(v)
			}
			continue
		}
		if rowsOnly {
			continue
		}
		for _, r := range dirty {
			out[r] = math.Log(row[r])
		}
	}
	if rowsOnly {
		for _, r := range dirty {
			s.refreshRow(r)
		}
	} else {
		s.rowMax, s.rowMin = rowExtrema(s.logs, n)
	}
	refreshColMinima(s.colMin, s.logs, n, dirty)
}

// refreshRow re-derives one row's extrema after its log entries changed.
func (s *ZetaScanState) refreshRow(x int) {
	n := s.n
	row := s.logs[x*n : (x+1)*n]
	mx, mn := math.Inf(-1), math.Inf(1)
	for j, v := range row {
		if j == x {
			continue
		}
		if v > mx {
			mx = v
		}
		if v < mn {
			mn = v
		}
	}
	s.rowMax[x], s.rowMin[x] = mx, mn
}

// MaxRange returns the exact ζ maximum over the ordered triplets whose
// first index lies in [xlo, xhi) — the shard-sized partial reduction whose
// max-merge over a row partition equals the full scan. The scan is serial
// (one shard = one goroutine; parallelism comes from the number of shards)
// but cache-blocked over z like the tiled kernels, and polls ctx per row.
// sym certifies exact decay symmetry: the y-loop then starts at x+1,
// halving the triplet set exactly as ZetaTol does.
func (s *ZetaScanState) MaxRange(ctx context.Context, xlo, xhi int, sym bool) (float64, error) {
	best := DefaultZetaFloor
	if s.n < 3 || xlo >= xhi {
		return best, ctx.Err()
	}
	n := s.n
	invT := 1 / best
	amgm := 2 * math.Ln2 * best
	tile := tripletTile(n)
	if tile <= 0 {
		tile = n
	}
	for ztile := 0; ztile < n; ztile += tile {
		zhi := ztile + tile
		if zhi > n {
			zhi = n
		}
		for x := xlo; x < xhi; x++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			rowX := s.logs[x*n : (x+1)*n]
			maxX := s.rowMax[x]
			yStart := 0
			if sym {
				yStart = x + 1
			}
			for z := ztile; z < zhi; z++ {
				if z == x {
					continue
				}
				b := rowX[z]
				if b+s.rowMin[z]+amgm >= 2*maxX {
					continue
				}
				if math.Exp((b-maxX)*invT)+math.Exp((s.rowMin[z]-maxX)*invT) >= 1 {
					continue
				}
				rowZ := s.logs[z*n : (z+1)*n]
				aMin := (b + s.rowMin[z] + amgm) / 2
				for y := yStart; y < n; y++ {
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
					if zt := zetaTriplet(a, b, c, s.tol); zt > best {
						best = zt
						invT = 1 / best
						amgm = 2 * math.Ln2 * best
						aMin = (b + s.rowMin[z] + amgm) / 2
					}
				}
			}
		}
	}
	return best, nil
}

// CollectRange returns every ordered triplet with first index in
// [xlo, xhi) whose ζ exceeds floor — the shard-sized band-collection phase.
// Concatenating the ranges of a partition yields exactly the candidate set
// a full collection pass produces (order aside, which no consumer depends
// on). ctx is polled per row.
func (s *ZetaScanState) CollectRange(ctx context.Context, xlo, xhi int, floor float64) ([]BandTriplet, error) {
	var out []BandTriplet
	if s.n < 3 {
		return out, ctx.Err()
	}
	invT := 1 / floor
	amgm := 2 * math.Ln2 * floor
	for x := xlo; x < xhi; x++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rowX := s.logs[x*s.n : (x+1)*s.n]
		for z := 0; z < s.n; z++ {
			if z != x {
				out = s.collectPair(out, rowX, x, z, invT, amgm)
			}
		}
	}
	return out, nil
}

// RepairRange re-scans the triplets with first index in [xlo, xhi) whose
// value the mutation may have changed, after PatchRows, returning those
// above floor — the shard-sized repair phase. mask must be the dirty-node
// membership mask (len n). A ζ triplet (x, y, z) reads rows x and z only,
// so when rowsOnly declares that only the dirty rows changed, a clean row
// x rescans just its dirty-z pairs and skips the (x, y ∈ M, z ∉ M) slice,
// whose values are unchanged; otherwise every dirty-incident triplet is
// rescanned. Dirty rows always rescan in full.
func (s *ZetaScanState) RepairRange(ctx context.Context, xlo, xhi int, dirty []int, mask []bool, rowsOnly bool, floor float64) ([]BandTriplet, error) {
	var out []BandTriplet
	if s.n < 3 {
		return out, ctx.Err()
	}
	invT := 1 / floor
	amgm := 2 * math.Ln2 * floor
	zList := make([]int32, 0, s.n)
	for x := xlo; x < xhi; x++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out, zList = s.repairRow(out, x, dirty, mask, rowsOnly, invT, amgm, zList)
	}
	return out, nil
}

// repairRow collects row x's possibly changed triplets above the floor
// (see RepairRange) — the shared inner body of RepairRange and the
// pool-parallel ZetaTracker.Repair. zList is scratch for the shortlist of
// viable z, returned for reuse.
func (s *ZetaScanState) repairRow(local []BandTriplet, x int, dirty []int, mask []bool, rowsOnly bool, invT, amgm float64, zList []int32) ([]BandTriplet, []int32) {
	n := s.n
	rowX := s.logs[x*n : (x+1)*n]
	if mask[x] {
		// Every triplet of a dirty row changed: scan all pairs.
		for z := 0; z < n; z++ {
			if z != x {
				local = s.collectPair(local, rowX, x, z, invT, amgm)
			}
		}
		return local, zList
	}
	for _, z := range dirty {
		if z != x {
			local = s.collectPair(local, rowX, x, z, invT, amgm)
		}
	}
	if rowsOnly {
		return local, zList // rows x and z ∉ M are untouched
	}
	// The (x, y ∈ M, z ∉ M) slice. The AM-GM necessary condition
	// b + c + amgm < 2a with c ≥ colMin[y] bounds b from above, so one
	// pass over the row shortlists the viable z — typically a small
	// fraction of n — before the per-y loops run.
	aMax := math.Inf(-1)
	cMinD := math.Inf(1)
	live := 0
	for _, y := range dirty {
		if y == x {
			continue
		}
		a := rowX[y]
		if s.rowMin[x]+s.colMin[y]+amgm >= 2*a {
			continue // pair (x, y) cannot reach the floor
		}
		live++
		if a > aMax {
			aMax = a
		}
		if s.colMin[y] < cMinD {
			cMinD = s.colMin[y]
		}
	}
	if live == 0 {
		return local, zList
	}
	bLim := 2*aMax - amgm - cMinD
	zList = zList[:0]
	for z := 0; z < n; z++ {
		if z != x && !mask[z] && rowX[z] < bLim {
			zList = append(zList, int32(z)) // dirty z covered above
		}
	}
	for _, y := range dirty {
		if y == x {
			continue
		}
		a := rowX[y]
		if s.rowMin[x]+s.colMin[y]+amgm >= 2*a {
			continue
		}
		bLimY := 2*a - amgm - s.colMin[y]
		for _, z32 := range zList {
			z := int(z32)
			if z == y {
				continue
			}
			b := rowX[z]
			if b >= bLimY || a <= b {
				continue
			}
			c := s.logs[z*n+y]
			if a <= c || b+c+amgm >= 2*a {
				continue
			}
			if math.Exp((b-a)*invT)+math.Exp((c-a)*invT) >= 1 {
				continue
			}
			if zt := zetaTriplet(a, b, c, s.tol); zt > 1/invT {
				local = append(local, BandTriplet{zt, int32(x), int32(y), int32(z)})
			}
		}
	}
	return local, zList
}

// collectPair scans the (x, ·, z) pair — all y against fixed x, z —
// appending every triplet above the floor 1/invT. The whole-pair prune
// discharges the pair without entering the loop whenever even its
// strongest triplet (largest a, smallest c) stays within the floor;
// surviving pairs stop early on the a-only AM-GM necessary condition.
func (s *ZetaScanState) collectPair(local []BandTriplet, rowX []float64, x, z int, invT, amgm float64) []BandTriplet {
	maxX := s.rowMax[x]
	b := rowX[z]
	if b+s.rowMin[z]+amgm >= 2*maxX {
		return local
	}
	if math.Exp((b-maxX)*invT)+math.Exp((s.rowMin[z]-maxX)*invT) >= 1 {
		return local
	}
	n := s.n
	rowZ := s.logs[z*n : (z+1)*n]
	tau := 1 / invT
	aMin := (b + s.rowMin[z] + amgm) / 2
	for y := 0; y < n; y++ {
		a := rowX[y]
		if a <= aMin {
			continue
		}
		if y == x || y == z {
			continue
		}
		c := rowZ[y]
		if a <= c || b+c+amgm >= 2*a {
			continue
		}
		if math.Exp((b-a)*invT)+math.Exp((c-a)*invT) >= 1 {
			continue
		}
		if zt := zetaTriplet(a, b, c, s.tol); zt > tau {
			local = append(local, BandTriplet{zt, int32(x), int32(y), int32(z)})
		}
	}
	return local
}

// VarphiScanState is the ϕ scan replica: the dense matrix plus its decay
// extrema, with the same serial row-range partial scans as ZetaScanState.
type VarphiScanState struct {
	m *Matrix
	n int

	rowMaxF, rowMinF, colMinF []float64 // off-diagonal extrema of f
}

// NewVarphiScanState derives the pruning extrema of m for ϕ range scans.
func NewVarphiScanState(m *Matrix) *VarphiScanState {
	n := m.N()
	s := &VarphiScanState{m: m, n: n}
	if n < 3 {
		return s
	}
	s.rowMaxF, s.rowMinF = rowExtrema(m.f, n)
	s.colMinF = colMinima(m.f, n)
	return s
}

// N returns the number of nodes scanned.
func (s *VarphiScanState) N() int { return s.n }

// PatchRows refreshes the extrema after the matrix mutated on the dirty
// nodes' rows (and columns, unless rowsOnly). The matrix itself is read
// live, so only the derived bounds need repair.
func (s *VarphiScanState) PatchRows(dirty []int, rowsOnly bool) {
	if s.n < 3 || len(dirty) == 0 {
		return
	}
	if rowsOnly {
		for _, r := range dirty {
			s.refreshRowF(r)
		}
	} else {
		s.rowMaxF, s.rowMinF = rowExtrema(s.m.f, s.n)
	}
	refreshColMinima(s.colMinF, s.m.f, s.n, dirty)
}

// refreshRowF re-derives one row's decay extrema after the row mutated.
func (s *VarphiScanState) refreshRowF(x int) {
	row := s.m.row(x)
	mx, mn := math.Inf(-1), math.Inf(1)
	for j, v := range row {
		if j == x {
			continue
		}
		if v > mx {
			mx = v
		}
		if v < mn {
			mn = v
		}
	}
	s.rowMaxF[x], s.rowMinF[x] = mx, mn
}

// MaxRange returns the exact ϕ maximum over triplets with first index in
// [xlo, xhi) — ϕ's shard-sized partial reduction (see
// ZetaScanState.MaxRange). sym halves the scan on exactly symmetric spaces
// (z starts at x+1, as in Varphi).
func (s *VarphiScanState) MaxRange(ctx context.Context, xlo, xhi int, sym bool) (float64, error) {
	best := varphiFloorValue
	if s.n < 3 || xlo >= xhi {
		return best, ctx.Err()
	}
	n := s.n
	tile := tripletTile(n)
	if tile <= 0 {
		tile = n
	}
	for ytile := 0; ytile < n; ytile += tile {
		yhi := ytile + tile
		if yhi > n {
			yhi = n
		}
		for x := xlo; x < xhi; x++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			rowX := s.m.row(x)
			maxX := s.rowMaxF[x]
			zStart := 0
			if sym {
				zStart = x + 1
			}
			for y := ytile; y < yhi; y++ {
				if y == x {
					continue
				}
				fxy := rowX[y]
				if maxX <= best*(fxy+s.rowMinF[y]) {
					continue
				}
				rowY := s.m.row(y)
				for z := zStart; z < n; z++ {
					if z == x || z == y {
						continue
					}
					if r := rowX[z] / (fxy + rowY[z]); r > best {
						best = r
					}
				}
			}
		}
	}
	return best, nil
}

// CollectRange returns every triplet with first index in [xlo, xhi) whose
// ϕ ratio exceeds floor (see ZetaScanState.CollectRange).
func (s *VarphiScanState) CollectRange(ctx context.Context, xlo, xhi int, floor float64) ([]BandTriplet, error) {
	var out []BandTriplet
	if s.n < 3 {
		return out, ctx.Err()
	}
	for x := xlo; x < xhi; x++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rowX := s.m.row(x)
		for y := 0; y < s.n; y++ {
			if y != x {
				out = s.collectPair(out, rowX, x, y, floor)
			}
		}
	}
	return out, nil
}

// RepairRange re-scans the ϕ triplets with first index in [xlo, xhi)
// whose value the mutation may have changed, returning those above floor
// (see ZetaScanState.RepairRange). A ϕ triplet (x, y, z) reads rows x and
// y only, so under rowsOnly a clean row x rescans just its dirty-y pairs
// and skips the strided (x, y ∉ M, z ∈ M) slice.
func (s *VarphiScanState) RepairRange(ctx context.Context, xlo, xhi int, dirty []int, mask []bool, rowsOnly bool, floor float64) ([]BandTriplet, error) {
	var out []BandTriplet
	if s.n < 3 {
		return out, ctx.Err()
	}
	for x := xlo; x < xhi; x++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out = s.repairRow(out, x, dirty, mask, rowsOnly, floor)
	}
	return out, nil
}

// repairRow collects row x's possibly changed ϕ triplets above the floor
// (see RepairRange) — the shared inner body of RepairRange and
// VarphiTracker.Repair.
func (s *VarphiScanState) repairRow(local []BandTriplet, x int, dirty []int, mask []bool, rowsOnly bool, tau float64) []BandTriplet {
	n := s.n
	rowX := s.m.row(x)
	if mask[x] {
		for y := 0; y < n; y++ {
			if y != x {
				local = s.collectPair(local, rowX, x, y, tau)
			}
		}
		return local
	}
	for _, y := range dirty {
		if y != x {
			local = s.collectPair(local, rowX, x, y, tau)
		}
	}
	if rowsOnly {
		return local // rows x and y ∉ M are untouched
	}
	for _, z := range dirty {
		if z == x {
			continue
		}
		fxz := rowX[z]
		// Whole-pair prune for fixed (x, z): the largest possible ratio
		// pairs fxz with the smallest f(x,y) and f(y,z).
		if fxz <= tau*(s.rowMinF[x]+s.colMinF[z]) {
			continue
		}
		for y := 0; y < n; y++ {
			if y == x || y == z || mask[y] {
				continue // dirty y already covered above
			}
			if r := fxz / (rowX[y] + s.m.f[y*n+z]); r > tau {
				local = append(local, BandTriplet{r, int32(x), int32(y), int32(z)})
			}
		}
	}
	return local
}

// collectPair scans the (x, y, ·) pair — all z against fixed x, y —
// appending every ratio above the floor to local.
func (s *VarphiScanState) collectPair(local []BandTriplet, rowX []float64, x, y int, tau float64) []BandTriplet {
	fxy := rowX[y]
	// Whole-pair prune: even the largest numerator over the smallest
	// denominator cannot reach the floor.
	if s.rowMaxF[x] <= tau*(fxy+s.rowMinF[y]) {
		return local
	}
	n := s.n
	rowY := s.m.row(y)
	for z := 0; z < n; z++ {
		if z == x || z == y {
			continue
		}
		if r := rowX[z] / (fxy + rowY[z]); r > tau {
			local = append(local, BandTriplet{r, int32(x), int32(y), int32(z)})
		}
	}
	return local
}
