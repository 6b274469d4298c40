package decaynet_test

import (
	"math"
	"testing"

	"decaynet"
	"decaynet/internal/sinr"
)

// TestTieredAffectancesBitwise is the affectance wall on a tiered space:
// every way of building the matrix — the local link×link build, the
// per-pair oracle, an incremental patch on a dense twin, sharded builds
// over the dense twin and over the streamed tiered replica, and the remote
// tiered pool — yields the same bits. The link set includes links that
// share nodes, so some entries read f(x, x) = 0 and are +Inf.
func TestTieredAffectancesBitwise(t *testing.T) {
	inst, err := decaynet.BuildScenario("urban", decaynet.ScenarioConfig{Links: 56, Nodes: 512, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	links := append([]decaynet.Link(nil), inst.Links...)
	for k := 0; k < 8; k++ {
		links = append(links, decaynet.Link{Sender: inst.Links[k].Receiver, Receiver: inst.Links[k+8].Sender})
	}
	tiered := func(extra ...decaynet.EngineOption) *decaynet.Engine {
		t.Helper()
		eng, err := decaynet.NewEngine(append([]decaynet.EngineOption{
			decaynet.UsingSpace(inst.Space),
			decaynet.UsingLinks(links...),
			decaynet.WithTieredStorage(decaynet.TierOptions{
				Config: decaynet.TierConfig{K: 8, Tail: decaynet.TailModel},
				Points: inst.Points,
			}),
			decaynet.Noise(0.01),
		}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	ref := tiered()
	if !ref.Tiered() {
		t.Fatal("reference session is not tiered")
	}
	sys := ref.System()
	p := ref.LinearPower(0.5)
	want := ref.Affectances(p)
	n := want.N()
	if n != len(links) {
		t.Fatalf("affectance matrix covers %d links, want %d", n, len(links))
	}
	same := func(name string, got func(w, v int) float64) {
		t.Helper()
		for w := 0; w < n; w++ {
			for v := 0; v < n; v++ {
				if g, x := got(w, v), want.Raw(w, v); math.Float64bits(g) != math.Float64bits(x) {
					t.Fatalf("%s: a_%d(%d) = %v, tiered build %v", name, w, v, g, x)
				}
			}
		}
	}
	inf := 0
	for w := 0; w < n; w++ {
		for v := 0; v < n; v++ {
			if math.IsInf(want.Raw(w, v), 1) {
				inf++
			}
		}
	}
	if inf == 0 {
		t.Fatal("no +Inf entries: the shared-node links are not exercised")
	}
	same("per-pair AffectanceRaw", func(w, v int) float64 { return sinr.AffectanceRaw(sys, p, w, v) })

	// Dense twin: the tiered space materialized, bit-identical per entry.
	m := decaynet.Materialize(ref.Space())
	denseOpts := []decaynet.EngineOption{decaynet.UsingSpace(m), decaynet.UsingLinks(links...), decaynet.Noise(0.01)}
	dense, err := decaynet.NewEngine(denseOpts...)
	if err != nil {
		t.Fatal(err)
	}
	same("dense twin", dense.Affectances(p).Raw)
	sharded, err := decaynet.NewEngine(append(denseOpts, decaynet.WithShards(3))...)
	if err != nil {
		t.Fatal(err)
	}
	same("dense sharded", sharded.Affectances(p).Raw)

	// Patch: build against a perturbed copy, restore the dirty nodes' rows
	// and columns, and repair only the links incident to them.
	pert := m.Clone()
	dirtyNodes := []int{links[3].Sender, links[20].Receiver, links[60].Sender}
	for _, x := range dirtyNodes {
		for j := 0; j < m.N(); j++ {
			if j != x {
				if err := pert.Set(x, j, 3*m.F(x, j)); err != nil {
					t.Fatal(err)
				}
				if err := pert.Set(j, x, 0.5*m.F(j, x)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	psys, err := decaynet.NewSystem(pert, links, decaynet.WithNoise(sys.Noise()), decaynet.WithBeta(sys.Beta()))
	if err != nil {
		t.Fatal(err)
	}
	stale := sinr.ComputeAffectances(psys, p)
	var dirty []int
	for l, ln := range links {
		for _, x := range dirtyNodes {
			if ln.Sender == x || ln.Receiver == x {
				dirty = append(dirty, l)
				break
			}
		}
	}
	for _, x := range dirtyNodes {
		for j := 0; j < m.N(); j++ {
			if j != x {
				if err := pert.Set(x, j, m.F(x, j)); err != nil {
					t.Fatal(err)
				}
				if err := pert.Set(j, x, m.F(j, x)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	same("patched dense twin", sinr.PatchAffectances(psys, p, stale, dirty).Raw)

	// Streamed tiered replica (WithShards over tiered storage) and the
	// remote tiered pool over loopback workers.
	streamed := tiered(decaynet.WithShards(3))
	farm := startFarm(t, 2)
	rem := tiered(decaynet.WithRemoteWorkers(farm.addrs...), decaynet.WithRemoteTweak(fastPool))
	if streamed.Shards() != 3 || rem.RemoteWorkers() != 2 {
		t.Fatalf("Shards() = %d, RemoteWorkers() = %d, want 3 and 2", streamed.Shards(), rem.RemoteWorkers())
	}
	same("streamed tiered", streamed.Affectances(p).Raw)
	same("remote tiered", rem.Affectances(p).Raw)
}
