package main

import (
	"context"
	"fmt"

	"decaynet"
)

// The scale-out workload: a dense tracked session split across two
// in-process remote workers. The write is an Engine.Update drawn from the
// churn generator; the read is a capacity set under a fresh seeded power,
// whose affectance blocks cross the wire, plus ζ. Without it the shard
// coordinator and the remote wire path would go unmeasured.
const (
	scaleLinks   = 384 // 768 nodes
	scaleScene   = 1
	scaleWorkers = 2
	scaleWarmup  = 10
	scaleTraced  = 40
)

func scaleScenario() decaynet.ScenarioConfig {
	return decaynet.ScenarioConfig{Links: scaleLinks, Seed: scaleScene}
}

// newScaleOut builds a tracked session with the given extra option (the
// remote workers, or a twin's shards) and takes its first ζ, ϕ and
// capacity reads, which build the trackers.
func newScaleOut(ctx context.Context, opt decaynet.EngineOption) (*decaynet.Engine, error) {
	opts := []decaynet.EngineOption{decaynet.UsingScenario("urban", scaleScenario()), decaynet.WithMutationTracking()}
	if opt != nil {
		opts = append(opts, opt)
	}
	eng, err := decaynet.NewEngine(opts...)
	if err != nil {
		return nil, err
	}
	if err := firstReads(ctx, eng); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

func firstReads(ctx context.Context, eng *decaynet.Engine) error {
	if _, err := eng.ZetaCtx(ctx); err != nil {
		return err
	}
	if _, err := eng.PhiCtx(ctx); err != nil {
		return err
	}
	_, err := eng.CapacityCtx(ctx, eng.LinearPower(1), nil)
	return err
}

// scaleRead is one read's answers.
type scaleRead struct {
	zeta float64
	set  []int
}

// scaleOp runs one write and read against eng, timing the update and the
// affectance build under the given span names, which tell the remote
// session from its twins.
func scaleOp(ctx context.Context, eng *decaynet.Engine, m decaynet.Mutation, op powerOp, tr *tracer, update, aff string) (scaleRead, error) {
	var r scaleRead
	if err := tr.layer(update, func() error { return eng.Update(m) }); err != nil {
		return r, err
	}
	p := eng.LinearPower(op.scale)
	if err := tr.layer(aff, func() error { _, err := eng.AffectancesCtx(ctx, p); return err }); err != nil {
		return r, err
	}
	return r, scaleQuery(ctx, eng, p, tr, &r)
}

// scaleQuery is the read after the affectance build: capacity, ζ and the
// checks.
func scaleQuery(ctx context.Context, eng *decaynet.Engine, p decaynet.Power, tr *tracer, r *scaleRead) error {
	if err := tr.layer("capacity.algorithm1", func() (err error) { r.set, err = eng.CapacityCtx(ctx, p, nil); return err }); err != nil {
		return err
	}
	if err := tr.layer("core.zeta_read", func() (err error) { r.zeta, err = eng.ZetaCtx(ctx); return err }); err != nil {
		return err
	}
	return tr.layer("sinr.validate", func() error {
		if err := checkZeta(r.zeta); err != nil {
			return err
		}
		return checkCapacity(eng, p, r.set)
	})
}

// scaleInputs draws the warm-up and timed batches and powers.
func scaleInputs(seed uint64, n int) ([]decaynet.Mutation, []powerOp, error) {
	inst, err := decaynet.BuildScenario("urban", scaleScenario())
	if err != nil {
		return nil, nil, err
	}
	gen := newMutGen(inst.Space, inst.Links)
	warm, timed := newRand(seed, streamWarmup), newRand(seed, streamOps)
	muts := append(gen.draw(warm, scaleWarmup), gen.draw(timed, n)...)
	pows := append(powerOps(warm, scaleWarmup, scaleLinks, false), powerOps(timed, n, scaleLinks, false)...)
	return muts, pows, nil
}

func runScaleOut(cfg config, n int, rep *report) (err error) {
	ctx := context.Background()
	muts, pows, err := scaleInputs(cfg.seed, n)
	if err != nil {
		return err
	}
	ws, err := startWorkers(scaleWorkers)
	if err != nil {
		return err
	}
	defer func() {
		if serr := ws.stop(); err == nil {
			err = serr
		}
	}()
	var (
		t   timings
		eng *decaynet.Engine
	)
	defer func() {
		if eng != nil {
			eng.Close()
		}
	}()
	if err := t.timeSetup(func() (err error) {
		eng, err = newScaleOut(ctx, decaynet.WithRemoteWorkers(ws.addrs...))
		return err
	}, func() error {
		err := eng.Close()
		eng = nil
		return err
	}); err != nil {
		return err
	}
	for i := 0; i < scaleWarmup; i++ {
		if _, err := scaleOp(ctx, eng, muts[i], pows[i], nil, "", ""); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	muts, pows = muts[scaleWarmup:], pows[scaleWarmup:]
	var p decaynet.Power
	t.loop(rep, "scale-out", n,
		func(i int) error { return eng.Update(muts[i]) },
		func(i int) error {
			p = eng.LinearPower(pows[i].scale)
			if _, err := eng.AffectancesCtx(ctx, p); err != nil {
				return err
			}
			var r scaleRead
			err := scaleQuery(ctx, eng, p, nil, &r)
			rep.record("scale-out zeta=%x cap=%v", r.zeta, r.set)
			return err
		})
	muts, pows = nil, nil
	for _, scale := range settleScales {
		if _, err := eng.CapacityCtx(ctx, eng.LinearPower(scale), nil); err != nil {
			return fmt.Errorf("settle: %w", err)
		}
	}
	t.report(rep, liveHeapMiB(eng))
	return nil
}

func traceScaleOut(seed uint64, rep *report) (tr *tracer, err error) {
	ctx := context.Background()
	tr = newTracer("scale-out")
	muts, pows, err := scaleInputs(seed, scaleTraced)
	if err != nil {
		return nil, err
	}
	ws, err := startWorkers(scaleWorkers)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := ws.stop(); err == nil {
			err = serr
		}
	}()
	var eng *decaynet.Engine
	if err := tr.layer("remote.new", func() (err error) {
		eng, err = decaynet.NewEngine(decaynet.UsingScenario("urban", scaleScenario()),
			decaynet.WithMutationTracking(), decaynet.WithRemoteWorkers(ws.addrs...))
		return err
	}); err != nil {
		return nil, err
	}
	defer eng.Close()
	syncBytes := ws.bytes.Load()
	if err := tr.layer("remote.tracker", func() error { return firstReads(ctx, eng) }); err != nil {
		return nil, err
	}
	local, err := newScaleOut(ctx, nil)
	if err != nil {
		return nil, err
	}
	sharded, err := newScaleOut(ctx, decaynet.WithShards(scaleWorkers))
	if err != nil {
		return nil, err
	}
	var wire []float64
	for i := range muts {
		warm := i < scaleWarmup
		optr := tr
		if warm {
			optr = nil
		} else {
			tr.beginOp(i - scaleWarmup)
		}
		b0 := ws.bytes.Load()
		got, err := scaleOp(ctx, eng, muts[i], pows[i], optr, "remote.update", "remote.affectance")
		if !warm {
			tr.endOp()
			wire = append(wire, float64(ws.bytes.Load()-b0))
		}
		var sh, lo scaleRead
		if err == nil {
			sh, err = scaleOp(ctx, sharded, muts[i], pows[i], optr, "shard.update", "shard.affectance")
		}
		if err == nil {
			lo, err = scaleOp(ctx, local, muts[i], pows[i], optr, "engine.update", "sinr.affectance")
		}
		if err == nil {
			rep.record("scale-out zeta=%x cap=%v", got.zeta, got.set)
			err = twinScale(got, sh, lo)
		}
		if err != nil {
			rep.op(fmt.Sprintf("scale-out traced op %d", i), err)
			return tr, nil
		}
		if !warm {
			rep.op("scale-out traced op", nil)
		}
	}
	rep.ops["scale-out"] += scaleTraced
	addLayerSeconds(rep, tr, "remote.new_s", "remote.new")
	rep.add("scale-out.remote.sync_bytes", "B", float64(syncBytes), 1)
	addLayerSeconds(rep, tr, "remote.tracker_s", "remote.tracker")
	addLayer(rep, tr, "remote.update_ms", "remote.update")
	addLayer(rep, tr, "shard.update_ms", "shard.update")
	addLayer(rep, tr, "engine.update_ms", "engine.update")
	rep.add("scale-out.remote.wire_bytes_per_op", "B", mean(wire), len(wire))
	addLayer(rep, tr, "remote.affectance_ms", "remote.affectance")
	addLayer(rep, tr, "shard.affectance_ms", "shard.affectance")
	addLayer(rep, tr, "sinr.affectance_ms", "sinr.affectance")
	w := tr.samples("remote.update")
	r := tr.opSums("remote.affectance", "capacity.algorithm1", "core.zeta_read", "sinr.validate")
	rep.add("scale-out.traced.write_p50_ms", "ms", quantile(w, 0.5), len(w))
	rep.add("scale-out.traced.read_p50_ms", "ms", quantile(r, 0.5), len(r))
	return tr, nil
}

// twinScale requires the remote answers to equal both twins' bit for bit.
func twinScale(remote, sharded, local scaleRead) error {
	for _, tw := range []struct {
		name string
		r    scaleRead
	}{{"WithShards(2) twin", sharded}, {"local twin", local}} {
		if err := checkTwin("remote ζ vs "+tw.name, remote.zeta, tw.r.zeta); err != nil {
			return err
		}
		if err := checkTwinSet("remote capacity vs "+tw.name, remote.set, tw.r.set); err != nil {
			return err
		}
	}
	return nil
}
