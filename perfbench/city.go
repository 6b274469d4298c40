package main

import (
	"context"
	"fmt"

	"decaynet"
	"decaynet/internal/tier"
)

// The city workload: a city-scale tiered session. Each op installs a fresh
// seeded linear power — a new affectance matrix, which materialises a full
// tiered row for every link sender — then extracts a capacity set and a
// schedule for a seeded half of the links. Set-up is tier.Build through the
// geom spatial index plus the sampled ζ; the tier and geom layers do most
// of their work here and almost none in analyze.
const (
	cityNodes  = 16384
	cityLinks  = 512
	citySide   = 4096
	cityScene  = 1
	cityWarmup = 2
	cityTraced = 8
)

// cityScenario uses σ = 2 dB and a 6 dB corner penalty, the regime in
// which the spatial index prunes; at the scenario defaults (4 dB, 12 dB)
// it examines most of the 16k candidates per row and the build takes
// about ten times longer.
func cityScenario() decaynet.ScenarioConfig {
	return decaynet.ScenarioConfig{
		Nodes: cityNodes, Links: cityLinks, Seed: cityScene, Side: citySide,
		Params: map[string]float64{"sigma": 2, "corner": 6},
	}
}

func cityTier() decaynet.TierOptions {
	return decaynet.TierOptions{Config: decaynet.TierConfig{K: 32, Tail: decaynet.TailModel}}
}

// newCity builds the tiered session and its sampled ζ.
func newCity(ctx context.Context, tr *tracer) (*decaynet.Engine, error) {
	var eng *decaynet.Engine
	if err := tr.layer("engine.new", func() (err error) {
		eng, err = decaynet.NewEngine(
			decaynet.UsingScenario("urban", cityScenario()),
			decaynet.WithTieredStorage(cityTier()),
			decaynet.WithApproxMetricity(2048, 4096),
		)
		return err
	}); err != nil {
		return nil, err
	}
	err := tr.layer("core.zeta_sampled", func() error {
		z, err := eng.ZetaCtx(ctx)
		if err == nil {
			err = checkZeta(z)
		}
		return err
	})
	return eng, err
}

// cityOp is one city op: the write half installs the fresh power, the
// read half extracts and checks capacity and a schedule for the half.
type cityOp struct {
	tr  *tracer
	eng *decaynet.Engine
	p   decaynet.Power
}

func (o *cityOp) write(ctx context.Context, op powerOp) error {
	return o.tr.layer("sinr.affectance", func() error {
		o.p = o.eng.LinearPower(op.scale)
		_, err := o.eng.AffectancesCtx(ctx, o.p)
		return err
	})
}

func (o *cityOp) read(ctx context.Context, op powerOp, rep *report) error {
	var (
		set   []int
		slots [][]int
	)
	if err := o.tr.layer("capacity.algorithm1", func() (err error) { set, err = o.eng.CapacityCtx(ctx, o.p, op.links); return err }); err != nil {
		return err
	}
	if err := o.tr.layer("schedule.schedule", func() (err error) { slots, err = o.eng.ScheduleCtx(ctx, o.p, op.links); return err }); err != nil {
		return err
	}
	rep.record("city scale=%x cap=%v slots=%d", op.scale, set, len(slots))
	return o.tr.layer("sinr.validate", func() error {
		if err := checkCapacity(o.eng, o.p, set); err != nil {
			return err
		}
		return checkSchedule(o.eng, o.p, op.links, slots)
	})
}

func runCity(cfg config, n int, rep *report) error {
	ctx := context.Background()
	var (
		t   timings
		eng *decaynet.Engine
	)
	if err := t.timeSetup(func() (err error) {
		eng, err = newCity(ctx, nil)
		return err
	}, func() error {
		eng = nil
		return nil
	}); err != nil {
		return err
	}
	op := &cityOp{eng: eng}
	for _, w := range powerOps(newRand(cfg.seed, streamWarmup), cityWarmup, cityLinks, true) {
		if err := op.write(ctx, w); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if err := op.read(ctx, w, newReport()); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	ops := powerOps(newRand(cfg.seed, streamOps), n, cityLinks, true)
	t.loop(rep, "city", n,
		func(i int) error { return op.write(ctx, ops[i]) },
		func(i int) error { return op.read(ctx, ops[i], rep) })
	t.report(rep, liveHeapMiB(eng))
	return nil
}

func traceCity(seed uint64, rep *report) (*tracer, error) {
	ctx := context.Background()
	tr := newTracer("city")
	// A standalone tiered space over the same instance, for the build and
	// row-gather timings the engine performs internally.
	inst, err := decaynet.BuildScenario("urban", cityScenario())
	if err != nil {
		return nil, err
	}
	var ts *tier.Space
	if err := tr.layer("tier.build", func() (err error) {
		opts := cityTier()
		opts.Points = inst.Points
		ts, err = tier.Build(inst.Space, opts)
		return err
	}); err != nil {
		return nil, err
	}
	eng, err := newCity(ctx, tr)
	if err != nil {
		return nil, err
	}
	acct, _ := eng.TierAccounting()
	est, _ := eng.ZetaEstimate()

	op := &cityOp{tr: tr, eng: eng}
	row := make([]float64, cityNodes)
	all := append(powerOps(newRand(seed, streamWarmup), cityWarmup, cityLinks, true),
		powerOps(newRand(seed, streamOps), cityTraced, cityLinks, true)...)
	for i, o := range all {
		warm := i < cityWarmup
		optr := tr
		if warm {
			optr = nil
		} else {
			tr.beginOp(i - cityWarmup)
		}
		op.tr = optr
		err := op.write(ctx, o)
		if err == nil {
			err = op.read(ctx, o, rep)
		}
		if warm {
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			continue
		}
		tr.endOp()
		rep.op("city traced op", err)
		tr.layer("tier.row", func() error {
			for _, l := range inst.Links {
				ts.Row(l.Sender, row)
			}
			return nil
		})
	}
	rep.ops["city"] += cityTraced
	addLayerSeconds(rep, tr, "tier.build_s", "tier.build")
	rep.add("city.geom.candidates_per_row", "count", float64(acct.IndexCandidates)/float64(acct.IndexedRows), acct.IndexedRows)
	rep.add("city.geom.exhausted_rows", "count", float64(acct.IndexExhausted), acct.IndexedRows)
	addLayerSeconds(rep, tr, "core.zeta_sampled_s", "core.zeta_sampled")
	rep.add("city.core.sampled_triplets", "count", float64(est.Evaluated), 1)
	addLayer(rep, tr, "tier.row_ms", "tier.row")
	addLayer(rep, tr, "sinr.affectance_ms", "sinr.affectance")
	addLayer(rep, tr, "capacity.algorithm1_ms", "capacity.algorithm1")
	addLayer(rep, tr, "schedule.schedule_ms", "schedule.schedule")
	addLayer(rep, tr, "sinr.validate_ms", "sinr.validate")
	rep.add("city.tier.total_bytes", "B", float64(acct.TotalBytes()), 1)
	ops := tr.samples("op")
	rep.add("city.traced.op_p50_ms", "ms", quantile(ops, 0.5), len(ops))
	return tr, nil
}
