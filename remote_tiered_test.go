package decaynet_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"decaynet"
	"decaynet/internal/shard/remote"
)

// tieredUrbanOpts is the model-tail session the remote tiered transport is
// for: lazy urban geometry, fitted-tail far field, no dense matrix on the
// coordinator or the wire.
func tieredUrbanOpts(seed uint64) []decaynet.EngineOption {
	return []decaynet.EngineOption{
		decaynet.UsingScenario("urban", decaynet.ScenarioConfig{Links: 12, Nodes: 96, Seed: seed}),
		decaynet.WithTieredStorage(decaynet.TierOptions{
			Config: decaynet.TierConfig{K: 8, Tail: decaynet.TailModel},
		}),
		decaynet.Noise(0.01),
	}
}

// tieredF32Opts is the float32-tail variant over a dense test space.
func tieredF32Opts(t *testing.T, n int, seed uint64) []decaynet.EngineOption {
	return []decaynet.EngineOption{
		decaynet.UsingSpace(decaynet.Materialize(testMatrix(t, n, seed, false))),
		decaynet.PairedLinks(),
		decaynet.WithTieredStorage(decaynet.TierOptions{
			Config: decaynet.TierConfig{K: 4, Tail: decaynet.TailFloat32},
		}),
		decaynet.Noise(0.01),
	}
}

// buildTieredRemotePair builds a tiered engine fanning out to the farm's
// workers and a local tiered reference from the same options. Both builds
// are deterministic, so the two sessions hold bit-identical tiered spaces;
// the remote one additionally ships its snapshot to every worker.
func buildTieredRemotePair(t *testing.T, farm *workerFarm, tweak func(*remote.PoolConfig), base []decaynet.EngineOption) (rem, ref *decaynet.Engine) {
	t.Helper()
	rem, err := decaynet.NewEngine(append([]decaynet.EngineOption{
		decaynet.WithRemoteWorkers(farm.addrs...),
		decaynet.WithRemoteTweak(func(cfg *remote.PoolConfig) {
			fastPool(cfg)
			if tweak != nil {
				tweak(cfg)
			}
		}),
	}, base...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rem.Close() })
	ref, err = decaynet.NewEngine(base...)
	if err != nil {
		t.Fatal(err)
	}
	if !rem.Tiered() || !ref.Tiered() {
		t.Fatalf("Tiered() = %v / %v, want true / true", rem.Tiered(), ref.Tiered())
	}
	if rem.RemoteWorkers() != len(farm.addrs) || ref.RemoteWorkers() != 0 {
		t.Fatalf("RemoteWorkers() = %d / %d, want %d / 0", rem.RemoteWorkers(), ref.RemoteWorkers(), len(farm.addrs))
	}
	return rem, ref
}

// TestRemoteTieredEquivalence is the tiered-transport acceptance property:
// a tiered session fanning out over real TCP connections — the Sync
// handshake ships the CSR near field, the tail, and the streamed-scan
// extrema instead of a dense matrix — serves every cached product
// bit-for-bit equal to the local tiered engine, for both tail modes.
func TestRemoteTieredEquivalence(t *testing.T) {
	cases := []struct {
		name string
		base func(seed uint64) []decaynet.EngineOption
	}{
		{"model-tail-urban", tieredUrbanOpts},
		{"float32-tail", func(seed uint64) []decaynet.EngineOption { return tieredF32Opts(t, 32, seed) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range []int{1, 2} {
				farm := startFarm(t, k)
				rem, ref := buildTieredRemotePair(t, farm, nil, tc.base(uint64(7+k)))
				assertEquivalent(t, "tiered remote "+tc.name+" k="+itoa(k), rem, ref)
			}
		})
	}
}

// TestRemoteTieredFaultInjectionEquivalence: with seeded drops, delays,
// error returns, stale-version replies and mid-job connection crashes
// injected into every transport, the remote tiered session stays
// bit-identical to the local tiered engine. Stale and crash cures re-ship
// the precomputed tiered snapshot, so the resync counter proves the
// tiered Sync path itself recovered.
func TestRemoteTieredFaultInjectionEquivalence(t *testing.T) {
	for _, fp := range faultPlans {
		t.Run(fp.name, func(t *testing.T) {
			farm := startFarm(t, 2)
			inj := remote.NewFaultInjector(fp.plan)
			rem, ref := buildTieredRemotePair(t, farm, func(cfg *remote.PoolConfig) {
				cfg.Wrap = inj.Wrap
			}, tieredUrbanOpts(11))
			assertEquivalent(t, "tiered fault "+fp.name, rem, ref)
			// A tiered session is immutable, so there is no churn workload;
			// rerun the coordinator's ζ/ϕ max scans through the workers until
			// every fault class has had enough remote calls to fire.
			for i := 0; i < 25; i++ {
				rescanMatches(t, "tiered fault "+fp.name+" rescan "+itoa(i), rem, ref)
			}
			fp.expect(t, "tiered "+fp.name, rem.RemotePoolStats())
		})
	}
}

// rescanMatches reruns rem's coordinator ζ/ϕ max scans through its
// workers and requires both to equal the local reference's Zeta and Phi
// bit for bit.
func rescanMatches(t *testing.T, tag string, rem, ref *decaynet.Engine) {
	t.Helper()
	z, phi, err := rem.CoordinatorScans(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if math.Float64bits(z) != math.Float64bits(ref.Zeta()) {
		t.Fatalf("%s: zeta %v, local %v", tag, z, ref.Zeta())
	}
	if math.Float64bits(phi) != math.Float64bits(ref.Phi()) {
		t.Fatalf("%s: phi %v, local %v", tag, phi, ref.Phi())
	}
}

// TestRemoteTieredAllWorkersDownLocalFallback: graceful degradation holds
// for tiered sessions — with every remote worker failing every call, the
// coordinator streams each slot's row range on its own replica.
func TestRemoteTieredAllWorkersDownLocalFallback(t *testing.T) {
	farm := startFarm(t, 2)
	inj := remote.NewFaultInjector(remote.FaultPlan{ErrEvery: 1})
	rem, ref := buildTieredRemotePair(t, farm, func(cfg *remote.PoolConfig) {
		cfg.Wrap = inj.Wrap
		cfg.MaxAttempts = 2
	}, tieredUrbanOpts(13))
	assertEquivalent(t, "tiered all workers down", rem, ref)
	if s := rem.RemotePoolStats(); s.LocalFallbacks == 0 {
		t.Fatalf("no local fallback recorded with every worker failing: %+v", s)
	}
}

// TestRemoteTieredWorkerRejoin kills a worker mid-session and restarts it:
// re-admission goes through a fresh tiered Sync (the snapshot is
// precomputed and immutable, so revival needs no session lock), after
// which the worker serves fenced scans again.
func TestRemoteTieredWorkerRejoin(t *testing.T) {
	farm := startFarm(t, 2)
	rem, ref := buildTieredRemotePair(t, farm, nil, tieredUrbanOpts(17))
	rem.Zeta()
	ref.Zeta()

	farm.Stop(1)
	assertEquivalent(t, "tiered worker down", rem, ref)
	down := rem.RemotePoolStats()
	if down.Reassigned == 0 && down.LocalFallbacks == 0 {
		t.Fatalf("dead worker's jobs never rerouted: %+v", down)
	}

	farm.Restart(1)
	// Drive fresh remote work (the coordinator's ζ/ϕ max scans) until the
	// pool re-admits the worker through a tiered Sync.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; rem.RemotePoolStats().Resyncs <= down.Resyncs && time.Now().Before(deadline); i++ {
		rescanMatches(t, "tiered rejoin rescan "+itoa(i), rem, ref)
	}
	assertEquivalent(t, "tiered worker rejoined", rem, ref)
	if up := rem.RemotePoolStats(); up.Resyncs <= down.Resyncs {
		t.Fatalf("rejoining worker was never re-synced: before %+v after %+v", down, up)
	}
}

// TestRemoteTieredImmutable: the immutability contract is unchanged by the
// remote fan-out — Update fails with ErrTieredImmutable before anything
// ships, and the version fence stays at its construction value.
func TestRemoteTieredImmutable(t *testing.T) {
	farm := startFarm(t, 2)
	rem, _ := buildTieredRemotePair(t, farm, nil, tieredUrbanOpts(19))
	err := rem.Update(decaynet.Mutation{SetDecays: []decaynet.DecayEdit{{I: 0, J: 1, F: 2}}})
	if !errors.Is(err, decaynet.ErrTieredImmutable) {
		t.Fatalf("remote tiered Update err = %v, want ErrTieredImmutable", err)
	}
	if v := rem.Version(); v != 0 {
		t.Fatalf("remote tiered session at version %d after rejected Update", v)
	}
}
