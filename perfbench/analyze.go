package main

import (
	"context"
	"fmt"
	"runtime"

	"decaynet"
)

// The analyze workload: the researcher's one-shot question on a realistic
// space. Every op builds a fresh dense urban session and asks for ζ, ϕ, a
// capacity set and a schedule, so the one-shot exact ζ/ϕ triplet scans
// dominate. The tracker, tier, server and remote layers are bypassed.
const (
	analyzeLinks  = 192
	analyzeNodes  = 384
	analyzeWarmup = 24 // warm-up sessions per set-up, 0.8–1.6 s of work
	analyzeTraced = 30
)

// analyzeOp is one analyze op: the write half builds the session, the read
// half analyzes it and checks the answers.
type analyzeOp struct {
	tr   *tracer
	eng  *decaynet.Engine
	last *decaynet.Engine // the last analyzed session, alive for the heap figure
}

func (o *analyzeOp) write(seed uint64) error {
	return o.tr.layer("engine.new", func() (err error) {
		o.eng, err = decaynet.NewEngine(decaynet.UsingScenario("urban", decaynet.ScenarioConfig{
			Links: analyzeLinks, Nodes: analyzeNodes, Seed: seed,
		}))
		return err
	})
}

func (o *analyzeOp) read(ctx context.Context, rep *report) error {
	eng := o.eng
	o.eng, o.last = nil, eng
	var (
		zeta, phi float64
		p         decaynet.Power
		set       []int
		slots     [][]int
	)
	if err := o.tr.layer("core.zeta", func() (err error) { zeta, err = eng.ZetaCtx(ctx); return err }); err != nil {
		return err
	}
	if err := o.tr.layer("core.phi", func() (err error) { phi, err = eng.PhiCtx(ctx); return err }); err != nil {
		return err
	}
	if err := o.tr.layer("sinr.affectance", func() error {
		p = eng.LinearPower(1)
		_, err := eng.AffectancesCtx(ctx, p)
		return err
	}); err != nil {
		return err
	}
	if err := o.tr.layer("capacity.algorithm1", func() (err error) { set, err = eng.CapacityCtx(ctx, p, nil); return err }); err != nil {
		return err
	}
	if err := o.tr.layer("schedule.schedule", func() (err error) { slots, err = eng.ScheduleCtx(ctx, p, nil); return err }); err != nil {
		return err
	}
	rep.record("analyze zeta=%x phi=%x cap=%v slots=%d", zeta, phi, set, len(slots))
	return o.tr.layer("sinr.validate", func() error { return checkAnalysis(eng, p, zeta, phi, set, slots) })
}

func runAnalyze(cfg config, n int, rep *report) error {
	ctx := context.Background()
	var t timings
	warm := sessionSeeds(cfg.seed, analyzeWarmup, true)
	if err := t.timeSetup(func() error {
		op := &analyzeOp{}
		for _, s := range warm {
			if err := op.write(s); err != nil {
				return err
			}
			if err := op.read(ctx, newReport()); err != nil {
				return err
			}
		}
		return nil
	}, nil); err != nil {
		return err
	}
	seeds := sessionSeeds(cfg.seed, n, false)
	op := &analyzeOp{}
	t.loop(rep, "analyze", n,
		func(i int) error { return op.write(seeds[i]) },
		func(i int) error { return op.read(ctx, rep) })
	t.report(rep, liveHeapMiB(op.last))
	return nil
}

func traceAnalyze(seed uint64, rep *report) (*tracer, error) {
	ctx := context.Background()
	tr := newTracer("analyze")
	warm := &analyzeOp{}
	for _, s := range sessionSeeds(seed, analyzeWarmup, true) {
		if err := warm.write(s); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := warm.read(ctx, newReport()); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC()
	op := &analyzeOp{tr: tr}
	seeds := sessionSeeds(seed, analyzeTraced, false)
	for i, s := range seeds {
		tr.beginOp(i)
		err := op.write(s)
		if err == nil {
			err = op.read(ctx, rep)
		}
		tr.endOp()
		rep.op("analyze traced op", err)
	}
	rep.ops["analyze"] += len(seeds)
	addLayer(rep, tr, "engine.new_ms", "engine.new")
	addLayer(rep, tr, "core.zeta_ms", "core.zeta")
	addLayer(rep, tr, "core.phi_ms", "core.phi")
	addLayer(rep, tr, "sinr.affectance_ms", "sinr.affectance")
	addLayer(rep, tr, "capacity.algorithm1_ms", "capacity.algorithm1")
	addLayer(rep, tr, "schedule.schedule_ms", "schedule.schedule")
	addLayer(rep, tr, "sinr.validate_ms", "sinr.validate")
	ops := tr.samples("op")
	rep.add("analyze.traced.op_p50_ms", "ms", quantile(ops, 0.5), len(ops))
	return tr, nil
}
