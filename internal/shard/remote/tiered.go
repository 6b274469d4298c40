package remote

import (
	"fmt"

	"decaynet/internal/core"
	"decaynet/internal/geom"
	"decaynet/internal/tier"
)

// encodeTiered packs a tiered space's snapshot and its streamed-scan
// extrema into the wire payload. The packed arrays alias the (immutable)
// space storage; only the row starts and points are re-laid-out.
func encodeTiered(snap tier.Snapshot, ex core.StreamExtrema, tileRows, maxTiles int) (*TieredSnap, error) {
	starts := make(Int32s, len(snap.NearStart))
	for i, v := range snap.NearStart {
		if int(int32(v)) != v {
			return nil, fmt.Errorf("remote: tiered snapshot row start %d overflows the wire encoding", v)
		}
		starts[i] = int32(v)
	}
	ts := &TieredSnap{
		Sym:       snap.Sym,
		Cfg:       snap.Cfg.Encode(),
		NearStart: starts,
		NearIdx:   Int32s(snap.NearIdx),
		NearVal:   Floats(snap.NearVal),
		LogMax:    Floats(ex.LogMax),
		LogMin:    Floats(ex.LogMin),
		FMax:      Floats(ex.FMax),
		FMin:      Floats(ex.FMin),
		Seed:      ex.Seed,
		TileRows:  tileRows,
		MaxTiles:  maxTiles,
	}
	switch snap.Cfg.Tail {
	case tier.TailFloat32:
		ts.F32 = Float32s(snap.F32)
	case tier.TailModel:
		ts.Model = snap.Model.Encode()
		pts := make(Floats, 0, 2*len(snap.Pts))
		for _, p := range snap.Pts {
			pts = append(pts, p.X, p.Y)
		}
		ts.Pts = pts
	}
	return ts, nil
}

// decodeTiered unpacks the wire payload back into a tier snapshot and the
// scan extrema, re-running the strict config/model parsers. Structural
// validation of the near field happens in tier.FromSnapshot.
func (ts *TieredSnap) decodeTiered(n int) (tier.Snapshot, core.StreamExtrema, error) {
	var ex core.StreamExtrema
	cfg, err := tier.ParseConfig(ts.Cfg)
	if err != nil {
		return tier.Snapshot{}, ex, fmt.Errorf("remote: tiered sync config: %w", err)
	}
	snap := tier.Snapshot{
		N:       n,
		Sym:     ts.Sym,
		Cfg:     cfg,
		NearIdx: []int32(ts.NearIdx),
		NearVal: []float64(ts.NearVal),
	}
	snap.NearStart = make([]int, len(ts.NearStart))
	for i, v := range ts.NearStart {
		snap.NearStart[i] = int(v)
	}
	switch cfg.Tail {
	case tier.TailFloat32:
		snap.F32 = []float32(ts.F32)
	case tier.TailModel:
		model, err := tier.ParseModel(ts.Model)
		if err != nil {
			return tier.Snapshot{}, ex, fmt.Errorf("remote: tiered sync model: %w", err)
		}
		snap.Model = model
		if len(ts.Pts) != 2*n {
			return tier.Snapshot{}, ex, fmt.Errorf("remote: tiered sync with %d point coordinates for n=%d", len(ts.Pts), n)
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(ts.Pts[2*i], ts.Pts[2*i+1])
		}
		snap.Pts = pts
	}
	ex = core.StreamExtrema{
		LogMax: []float64(ts.LogMax),
		LogMin: []float64(ts.LogMin),
		FMax:   []float64(ts.FMax),
		FMin:   []float64(ts.FMin),
		Seed:   ts.Seed,
	}
	return snap, ex, nil
}
