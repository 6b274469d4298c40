package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"decaynet"
	"decaynet/internal/core"
	"decaynet/internal/server"
	"decaynet/internal/sinr"
)

// The churn workload: the operator's long-lived session on decaynetd. The
// write is a seeded mutation batch POSTed to the session; the read is the
// served ζ and the capacity set at linear power. Writes load Engine.Update,
// the incremental ζ/ϕ tracker repair and the affectance patching; reads
// are dominated by the server layer. Set-up is the one place where the
// environment layer does most of the work.
const (
	churnLinks  = 256 // 512 nodes
	churnScene  = 1   // scenario seed: the session is the same on every run
	churnWarmup = 30
	churnTraced = 150
)

func churnScenario() decaynet.ScenarioConfig {
	return decaynet.ScenarioConfig{Links: churnLinks, Seed: churnScene}
}

// churnSession is one served session and the client's view of its version.
type churnSession struct {
	d       *daemon
	path    string
	version uint64
}

type zetaResp struct {
	Zeta    float64 `json:"zeta"`
	Version uint64  `json:"version"`
}

type phiResp struct {
	Phi float64 `json:"phi"`
}

type capacityResp struct {
	Links   []int  `json:"links"`
	Version uint64 `json:"version"`
}

// createChurn creates the tracked office session and takes its first ζ,
// ϕ and capacity reads, which build both trackers and the affectances.
func createChurn(d *daemon, tr *tracer) (*churnSession, error) {
	body, err := json.Marshal(server.CreateRequest{
		Scenario: "office",
		Config:   server.ScenarioParams{Links: churnLinks, Seed: churnScene},
		Tracking: true,
	})
	if err != nil {
		return nil, err
	}
	var info server.SessionInfo
	if err := tr.layer("server.create", func() error { return d.call("POST", "/v1/sessions", body, &info) }); err != nil {
		return nil, err
	}
	s := &churnSession{d: d, path: "/v1/sessions/" + info.ID, version: info.Version}
	if err := tr.layer("server.first_reads", func() error {
		for _, route := range []string{"/zeta", "/phi", "/capacity?power=linear"} {
			if err := d.call("GET", s.path+route, nil, nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// encodeMutation renders a batch as the wire body, fenced on base.
func encodeMutation(m decaynet.Mutation, base uint64) ([]byte, error) {
	req := server.MutationRequest{BaseVersion: &base, RemoveLinks: m.RemoveLinks}
	for r, vals := range m.SetRows {
		req.SetRows = append(req.SetRows, server.RowEdit{Row: r, Values: vals})
	}
	for _, e := range m.SetDecays {
		req.SetDecays = append(req.SetDecays, server.DecayEditSpec{I: e.I, J: e.J, F: e.F})
	}
	for _, l := range m.AddLinks {
		req.AddLinks = append(req.AddLinks, server.LinkSpec{Sender: l.Sender, Receiver: l.Receiver})
	}
	return json.Marshal(req)
}

// write POSTs one pre-encoded batch and checks the version advanced by one.
func (s *churnSession) write(body []byte, tr *tracer) error {
	return tr.layer("server.write_rtt", func() error {
		var resp struct {
			Version uint64 `json:"version"`
		}
		if err := s.d.call("POST", s.path+"/mutations", body, &resp); err != nil {
			return err
		}
		if err := checkVersion(s.version, resp.Version); err != nil {
			return err
		}
		s.version = resp.Version
		return nil
	})
}

// read GETs ζ and the linear-power capacity set and checks them.
func (s *churnSession) read(tr *tracer, rep *report) (zetaResp, capacityResp, error) {
	var (
		z zetaResp
		c capacityResp
	)
	err := tr.layer("server.read_rtt", func() error {
		if err := s.d.call("GET", s.path+"/zeta", nil, &z); err != nil {
			return err
		}
		return s.d.call("GET", s.path+"/capacity?power=linear&scale=1", nil, &c)
	})
	if err != nil {
		return z, c, err
	}
	rep.record("churn v=%d zeta=%x cap=%v", z.Version, z.Zeta, c.Links)
	if err := checkZeta(z.Zeta); err != nil {
		return z, c, err
	}
	if z.Version != s.version || c.Version != s.version {
		return z, c, fmt.Errorf("read versions %d/%d, session at %d", z.Version, c.Version, s.version)
	}
	return z, c, nil
}

// churnBodies draws the seeded batches (warm-up first) and pre-encodes them,
// fenced on the versions they will be applied at.
func churnBodies(gen *mutGen, seed uint64, n int) ([]decaynet.Mutation, [][]byte, error) {
	muts := append(gen.draw(newRand(seed, streamWarmup), churnWarmup), gen.draw(newRand(seed, streamOps), n)...)
	bodies := make([][]byte, len(muts))
	for i, m := range muts {
		b, err := encodeMutation(m, uint64(i))
		if err != nil {
			return nil, nil, err
		}
		bodies[i] = b
	}
	return muts, bodies, nil
}

func runChurn(cfg config, n int, rep *report) (err error) {
	inst, err := decaynet.BuildScenario("office", churnScenario())
	if err != nil {
		return err
	}
	_, bodies, err := churnBodies(newMutGen(inst.Space, inst.Links), cfg.seed, n)
	if err != nil {
		return err
	}
	inst = nil
	d, err := startDaemon()
	if err != nil {
		return err
	}
	defer func() {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}()
	var (
		t    timings
		sess *churnSession
	)
	if err := t.timeSetup(func() (err error) {
		sess, err = createChurn(d, nil)
		return err
	}, func() error {
		return d.call("DELETE", sess.path, nil, nil)
	}); err != nil {
		return err
	}
	for i := 0; i < churnWarmup; i++ {
		if err := sess.write(bodies[i], nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if _, _, err := sess.read(nil, newReport()); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	timed := bodies[churnWarmup:]
	t.loop(rep, "churn", n,
		func(i int) error { return sess.write(timed[i], nil) },
		func(i int) error { _, _, err := sess.read(nil, rep); return err })
	bodies, timed = nil, nil
	for _, scale := range settleScales {
		if err := d.call("GET", fmt.Sprintf("%s/capacity?power=linear&scale=%g", sess.path, scale), nil, nil); err != nil {
			return fmt.Errorf("settle: %w", err)
		}
	}
	t.report(rep, liveHeapMiB())
	return nil
}

// settleScales are the linear-power scales of the reads that fill the
// session's affectance cache (four slots) before the live heap is taken.
// How full the cache is otherwise depends on where in the mutation stream
// the run stopped, as link swaps flush it.
var settleScales = []float64{2, 3, 4, 5}

// churnTwin is the traced run's direct twin of the served session: an
// Engine on the same scenario, plus standalone trackers over a separately
// built matrix, each fed the same batches.
type churnTwin struct {
	eng     *decaynet.Engine
	m       *core.Matrix
	zt      *core.ZetaTracker
	vt      *core.VarphiTracker
	prevP   decaynet.Power
	prevAff *decaynet.Affectances
}

func newChurnTwin(ctx context.Context, tr *tracer) (*churnTwin, *decaynet.ScenarioInstance, error) {
	var (
		inst *decaynet.ScenarioInstance
		tw   = &churnTwin{}
	)
	if err := tr.layer("environment.build", func() (err error) {
		inst, err = decaynet.BuildScenario("office", churnScenario())
		return err
	}); err != nil {
		return nil, nil, err
	}
	tw.m = core.Dense(inst.Space).Clone()
	if err := tr.layer("core.zeta_tracker", func() (err error) {
		tw.zt, err = core.NewZetaTracker(ctx, tw.m, 1e-12)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := tr.layer("core.phi_tracker", func() (err error) {
		tw.vt, err = core.NewVarphiTracker(ctx, tw.m)
		return err
	}); err != nil {
		return nil, nil, err
	}
	eng, err := decaynet.NewEngine(decaynet.UsingScenario("office", churnScenario()), decaynet.WithMutationTracking())
	if err != nil {
		return nil, nil, err
	}
	tw.eng = eng
	if _, err := eng.ZetaCtx(ctx); err != nil {
		return nil, nil, err
	}
	if _, err := eng.PhiCtx(ctx); err != nil {
		return nil, nil, err
	}
	tw.prevP = eng.LinearPower(1)
	if tw.prevAff, err = eng.AffectancesCtx(ctx, tw.prevP); err != nil {
		return nil, nil, err
	}
	return tw, inst, nil
}

// apply feeds one batch to the twin engine and the standalone trackers,
// and times the affectance patch the engine applies internally.
func (tw *churnTwin) apply(m decaynet.Mutation, tr *tracer) error {
	if err := tr.layer("engine.update", func() error { return tw.eng.Update(m) }); err != nil {
		return err
	}
	dirty := dirtyRows(m)
	if len(dirty) == 0 {
		return nil
	}
	for r, vals := range m.SetRows {
		if err := tw.m.SetRow(r, vals); err != nil {
			return err
		}
	}
	for _, e := range m.SetDecays {
		if err := tw.m.Set(e.I, e.J, e.F); err != nil {
			return err
		}
	}
	tr.layer("core.zeta_repair", func() error { tw.zt.Repair(dirty, true); return nil })
	tr.layer("core.phi_repair", func() error { tw.vt.Repair(dirty, true); return nil })
	if len(m.RemoveLinks) == 0 && len(m.AddLinks) == 0 {
		dl := dirtyLinks(tw.eng.Links(), dirty)
		if len(dl) > 0 {
			tr.layer("sinr.patch", func() error {
				sinr.PatchAffectances(tw.eng.System(), tw.prevP, tw.prevAff, dl)
				return nil
			})
		}
	}
	return nil
}

// dirtyLinks lists the links with an endpoint among the dirty nodes.
func dirtyLinks(links []decaynet.Link, dirty []int) []int {
	mask := map[int]bool{}
	for _, r := range dirty {
		mask[r] = true
	}
	var out []int
	for v, l := range links {
		if mask[l.Sender] || mask[l.Receiver] {
			out = append(out, v)
		}
	}
	return out
}

// read times the twin's own ζ + capacity read and checks the served
// answers against it bit for bit, ϕ included.
func (tw *churnTwin) read(ctx context.Context, s *churnSession, z zetaResp, c capacityResp, tr *tracer) error {
	var (
		zeta float64
		set  []int
		p    decaynet.Power
	)
	if err := tr.layer("engine.read", func() (err error) {
		if zeta, err = tw.eng.ZetaCtx(ctx); err != nil {
			return err
		}
		p = tw.eng.LinearPower(1)
		set, err = tw.eng.CapacityCtx(ctx, p, nil)
		return err
	}); err != nil {
		return err
	}
	var ph phiResp
	if err := s.d.call("GET", s.path+"/phi", nil, &ph); err != nil {
		return err
	}
	phi, err := tw.eng.PhiCtx(ctx)
	if err != nil {
		return err
	}
	if err := checkTwin("served ζ", z.Zeta, zeta); err != nil {
		return err
	}
	if err := checkTwin("served φ", ph.Phi, phi); err != nil {
		return err
	}
	if err := checkTwin("tracker ζ", tw.zt.Zeta(), zeta); err != nil {
		return err
	}
	if err := checkTwin("tracker φ", math.Log2(tw.vt.Varphi()), phi); err != nil {
		return err
	}
	if err := checkTwinSet("served capacity", c.Links, set); err != nil {
		return err
	}
	tw.prevP = p
	tw.prevAff, err = tw.eng.AffectancesCtx(ctx, p)
	return err
}

func traceChurn(seed uint64, rep *report) (tr *tracer, err error) {
	ctx := context.Background()
	tr = newTracer("churn")
	tw, inst, err := newChurnTwin(ctx, tr)
	if err != nil {
		return nil, err
	}
	muts, bodies, err := churnBodies(newMutGen(inst.Space, inst.Links), seed, churnTraced)
	if err != nil {
		return nil, err
	}
	inst = nil
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}()
	sess, err := createChurn(d, tr)
	if err != nil {
		return nil, err
	}
	var reqBytes, respBytes []float64
	for i := range muts {
		warm := i < churnWarmup
		req0, resp0 := d.reqBytes, d.respBytes
		optr := tr
		if warm {
			optr = nil
		} else {
			tr.beginOp(i - churnWarmup)
		}
		err := sess.write(bodies[i], optr)
		var (
			z zetaResp
			c capacityResp
		)
		if err == nil {
			z, c, err = sess.read(optr, rep)
		}
		if !warm {
			tr.endOp()
			reqBytes = append(reqBytes, float64(d.reqBytes-req0))
			respBytes = append(respBytes, float64(d.respBytes-resp0))
		}
		if err == nil {
			err = tw.apply(muts[i], optr)
		}
		if err == nil {
			err = tw.read(ctx, sess, z, c, optr)
		}
		if err != nil {
			rep.op(fmt.Sprintf("churn traced op %d", i), err)
			return tr, nil
		}
		if !warm {
			rep.op("churn traced op", nil)
		}
	}
	rep.ops["churn"] += churnTraced
	addLayerSeconds(rep, tr, "environment.build_s", "environment.build")
	addLayerSeconds(rep, tr, "core.zeta_tracker_s", "core.zeta_tracker")
	addLayerSeconds(rep, tr, "core.phi_tracker_s", "core.phi_tracker")
	addLayerSeconds(rep, tr, "server.create_s", "server.create")
	addLayer(rep, tr, "server.write_rtt_ms", "server.write_rtt")
	addLayer(rep, tr, "engine.update_ms", "engine.update")
	addLayer(rep, tr, "core.zeta_repair_ms", "core.zeta_repair")
	addLayer(rep, tr, "core.phi_repair_ms", "core.phi_repair")
	addLayer(rep, tr, "sinr.patch_ms", "sinr.patch")
	addDiff(rep, tr, "server.write_overhead_ms", "server.write_rtt", "engine.update")
	addLayer(rep, tr, "server.read_rtt_ms", "server.read_rtt")
	addLayer(rep, tr, "engine.read_ms", "engine.read")
	addDiff(rep, tr, "server.read_overhead_ms", "server.read_rtt", "engine.read")
	rep.add("churn.server.req_bytes_per_op", "B", mean(reqBytes), len(reqBytes))
	rep.add("churn.server.resp_bytes_per_op", "B", mean(respBytes), len(respBytes))
	w, r := tr.samples("server.write_rtt"), tr.samples("server.read_rtt")
	rep.add("churn.traced.write_p50_ms", "ms", quantile(w, 0.5), len(w))
	rep.add("churn.traced.read_p50_ms", "ms", quantile(r, 0.5), len(r))
	return tr, nil
}

// addDiff reports the median over ops of span a minus span b, where both
// ran once per op (the served call against the same call made directly).
func addDiff(rep *report, tr *tracer, metric, a, b string) {
	as, bs := tr.samples(a), tr.samples(b)
	var d []float64
	for i := range as {
		if i < len(bs) {
			d = append(d, as[i]-bs[i])
		}
	}
	rep.add(tr.workload+"."+metric, "ms", quantile(d, 0.5), len(d))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
