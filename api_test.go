package decaynet

// Tests for the batched public surface: the RowSpace contract agrees with
// per-pair F everywhere, Engine caches return results identical to the
// uncached per-pair paths, and the scenario registry round-trips every
// built-in name.

import (
	"math"
	"os"
	"sort"
	"testing"

	"decaynet/internal/core"
	"decaynet/internal/rng"
	"decaynet/internal/sinr"
)

// funcSpace implements Space but NOT RowSpace, to exercise the
// Materialize-backed adapter path.
type funcSpace struct {
	n int
	f func(i, j int) float64
}

func (s funcSpace) N() int { return s.n }
func (s funcSpace) F(i, j int) float64 {
	if i == j {
		return 0
	}
	return s.f(i, j)
}

func randomMatrix(t testing.TB, n int, seed uint64) *Matrix {
	t.Helper()
	src := rng.New(seed)
	m, err := FromFunc(n, func(i, j int) float64 { return src.Range(0.5, 60) })
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestRowSpaceAgreesWithPerPairF(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		m := randomMatrix(t, 33, seed)
		spaces := map[string]Space{
			"matrix":    m,
			"func-view": funcSpace{n: m.N(), f: m.F},
		}
		pts := make([]Point, 20)
		src := rng.New(seed + 100)
		for i := range pts {
			pts[i] = Pt(src.Range(0, 50), src.Range(0, 50))
		}
		g, err := NewGeometricSpace(pts, 3)
		if err != nil {
			t.Fatal(err)
		}
		spaces["geometric"] = g

		for name, sp := range spaces {
			rs := Rows(sp)
			if rs.N() != sp.N() {
				t.Fatalf("%s: Rows changed N", name)
			}
			buf := make([]float64, rs.N())
			for i := 0; i < rs.N(); i++ {
				rs.Row(i, buf)
				for j := 0; j < rs.N(); j++ {
					if want := sp.F(i, j); buf[j] != want {
						t.Fatalf("%s: Row(%d)[%d] = %v, F = %v", name, i, j, buf[j], want)
					}
				}
			}
		}
	}
}

func TestBatchedZetaMatchesPerPair(t *testing.T) {
	for _, seed := range []uint64{4, 5, 6} {
		m := randomMatrix(t, 24, seed)
		batched := Zeta(m)
		ref := core.ZetaPerPair(m, 1e-12)
		if !relClose(batched, ref, 1e-9) {
			t.Fatalf("seed %d: batched zeta %v != per-pair %v", seed, batched, ref)
		}
	}
	// Geometric spaces: ζ = α exactly, through the row path.
	pts := []Point{Pt(0, 0), Pt(1, 0), Pt(2, 0), Pt(0, 3), Pt(4, 4)}
	g, err := NewGeometricSpace(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if z := Zeta(g); !relClose(z, 4, 1e-6) {
		t.Fatalf("geometric zeta = %v, want 4", z)
	}
}

func TestBatchedVarphiMatchesPerPair(t *testing.T) {
	for _, seed := range []uint64{7, 8} {
		m := randomMatrix(t, 24, seed)
		got := Varphi(m)
		// Per-pair reference.
		want := 0.5
		n := m.N()
		for x := 0; x < n; x++ {
			for z := 0; z < n; z++ {
				if z == x {
					continue
				}
				for y := 0; y < n; y++ {
					if y == x || y == z {
						continue
					}
					if r := m.F(x, z) / (m.F(x, y) + m.F(y, z)); r > want {
						want = r
					}
				}
			}
		}
		if !relClose(got, want, 1e-12) {
			t.Fatalf("seed %d: varphi %v != %v", seed, got, want)
		}
	}
}

// TestAffectancesMatchPerPair: the batched matrix and its In/Out sums
// equal the per-pair affectance functions bit for bit.
func TestAffectancesMatchPerPair(t *testing.T) {
	m := randomMatrix(t, 40, 9)
	links := make([]Link, 20)
	for i := range links {
		links[i] = Link{Sender: 2 * i, Receiver: 2*i + 1}
	}
	sys, err := NewSystem(m, links, WithBeta(1.2), WithNoise(0.01))
	if err != nil {
		t.Fatal(err)
	}
	p := LinearPower(sys, 1)
	aff := ComputeAffectances(sys, p)
	for w := 0; w < sys.Len(); w++ {
		for v := 0; v < sys.Len(); v++ {
			want := sinr.AffectanceRaw(sys, p, w, v)
			if got := aff.Raw(w, v); got != want {
				t.Fatalf("raw a_%d(%d) = %v, per-pair %v", w, v, got, want)
			}
			if got, want := aff.Clipped(w, v), sinr.Affectance(sys, p, w, v); got != want {
				t.Fatalf("clipped a_%d(%d) = %v, per-pair %v", w, v, got, want)
			}
		}
	}
	set := []int{0, 3, 7, 11, 19}
	for _, v := range set {
		if got, want := aff.In(set, v), sinr.InAffectance(sys, p, set, v); got != want {
			t.Fatalf("In(%d) = %v, want %v", v, got, want)
		}
		if got, want := aff.Out(v, set), sinr.OutAffectance(sys, p, v, set); got != want {
			t.Fatalf("Out(%d) = %v, want %v", v, got, want)
		}
	}
}

// referenceAlgorithm1 is Algorithm 1 written against the per-pair
// affectance functions only — the pre-Engine uncached path.
func referenceAlgorithm1(s *System, p Power, links []int) []int {
	zeta := s.Zeta()
	order := append([]int(nil), links...)
	sort.Slice(order, func(a, b int) bool {
		da, db := s.Decay(order[a]), s.Decay(order[b])
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	var x []int
	for _, v := range order {
		if !sinr.Succeeds(s, p, []int{v}, v) {
			continue
		}
		if !sinr.IsSeparatedFrom(s, v, x, zeta/2) {
			continue
		}
		if sinr.OutAffectance(s, p, v, x)+sinr.InAffectance(s, p, x, v) <= 0.5 {
			x = append(x, v)
		}
	}
	var out []int
	for _, v := range x {
		if sinr.InAffectance(s, p, x, v) <= 1 {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

func TestEngineCachingMatchesUncachedPaths(t *testing.T) {
	eng, err := NewEngine(
		UsingScenario("random", ScenarioConfig{Nodes: 48, Seed: 11}),
		Beta(1.1), Noise(0.005),
	)
	if err != nil {
		t.Fatal(err)
	}
	// ζ through the cached engine equals the per-pair reference.
	if z, ref := eng.Zeta(), core.ZetaPerPair(eng.Space(), 1e-12); !relClose(z, ref, 1e-9) {
		t.Fatalf("engine zeta %v != per-pair %v", z, ref)
	}
	if z1, z2 := eng.Zeta(), eng.Zeta(); z1 != z2 {
		t.Fatalf("cached zeta unstable: %v vs %v", z1, z2)
	}
	p := eng.UniformPower(1)
	// Capacity through the cached dense affectance equals the per-pair
	// reference implementation.
	got := eng.Capacity(p, nil)
	want := referenceAlgorithm1(eng.System(), p, eng.AllLinks())
	if len(got) != len(want) {
		t.Fatalf("capacity %v != reference %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("capacity %v != reference %v", got, want)
		}
	}
	// Second call hits the cache and must be identical.
	again := eng.Capacity(p, nil)
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("cached capacity differs: %v vs %v", got, again)
		}
	}
	// The affectance cache is reused for equal powers and rebuilt for new
	// ones, with identical values either way.
	a1 := eng.Affectances(p)
	a2 := eng.Affectances(eng.UniformPower(1))
	if a1 != a2 {
		t.Fatal("equal powers should share the cached affectance matrix")
	}
	p2 := eng.LinearPower(1)
	a3 := eng.Affectances(p2)
	if a3 == a1 {
		t.Fatal("different powers must rebuild the affectance matrix")
	}
	if got, want := a3.Raw(1, 2), sinr.AffectanceRaw(eng.System(), p2, 1, 2); !relClose(got, want, 1e-12) {
		t.Fatalf("rebuilt cache wrong: %v vs %v", got, want)
	}
	// Schedules built from the cache validate against the uncached
	// feasibility checker.
	slots, err := eng.Schedule(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ValidateSchedule(p, nil, slots); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioRegistryRoundTripsBuiltins(t *testing.T) {
	names := ScenarioNames()
	if len(names) < 10 {
		t.Fatalf("expected the built-in scenarios registered, got %v", names)
	}
	// The file-backed "trace" scenario needs a campaign on disk.
	synth, err := SynthesizeCampaign(SynthConfig{N: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tracePath := writeSampleCampaign(t, "roundtrip.csv", func(f *os.File) error {
		return WriteCampaignCSV(f, synth.Campaign)
	})
	for _, name := range names {
		cfg := ScenarioConfig{Seed: 3}
		if name == "trace" {
			cfg.Path = tracePath
		}
		inst, err := BuildScenario(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if inst.Scenario != name {
			t.Fatalf("%s: instance stamped %q", name, inst.Scenario)
		}
		if inst.Space == nil || inst.Space.N() < 2 {
			t.Fatalf("%s: bad space", name)
		}
		if err := core.Validate(inst.Space); err != nil {
			t.Fatalf("%s: invalid space: %v", name, err)
		}
		if len(inst.Links) == 0 {
			t.Fatalf("%s: no links", name)
		}
		eng, err := NewEngine(UsingScenario(name, cfg))
		if err != nil {
			t.Fatalf("%s: engine: %v", name, err)
		}
		if eng.Scenario() != name || eng.Len() != len(inst.Links) {
			t.Fatalf("%s: engine mismatch (%q, %d links vs %d)", name, eng.Scenario(), eng.Len(), len(inst.Links))
		}
		// Determinism: the same config builds the same space.
		inst2, err := BuildScenario(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := inst.Space.N()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if inst.Space.F(i, j) != inst2.Space.F(i, j) {
					t.Fatalf("%s: non-deterministic build at (%d,%d)", name, i, j)
				}
			}
		}
	}
	if _, err := BuildScenario("no-such-scenario", ScenarioConfig{}); err == nil {
		t.Fatal("unknown scenario must error")
	}
}

func TestRegisterScenarioPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	RegisterScenario(Scenario{Name: "office", Build: func(ScenarioConfig) (*ScenarioInstance, error) {
		return nil, nil
	}})
}

func TestEngineOptionValidation(t *testing.T) {
	if _, err := NewEngine(); err == nil {
		t.Fatal("engine without a space must error")
	}
	if _, err := NewEngine(UsingSpace(nil)); err == nil {
		t.Fatal("nil space must error")
	}
	m := randomMatrix(t, 6, 1)
	if _, err := NewEngine(
		UsingScenario("random", ScenarioConfig{}),
		UsingSpace(m),
	); err == nil {
		t.Fatal("scenario + explicit space must error")
	}
	eng, err := NewEngine(UsingSpace(m), PairedLinks())
	if err != nil {
		t.Fatal(err)
	}
	if eng.Len() != 3 {
		t.Fatalf("paired links = %d, want 3", eng.Len())
	}
}

// TestApproxMetricityRouting: above the threshold an Engine's Zeta/Phi come
// from the batched sampled estimators (lower bounds on the exact values);
// below it, the exact scans run and MetricityApproximate reports false.
func TestApproxMetricityRouting(t *testing.T) {
	m := randomMatrix(t, 48, 90)
	exactEng, err := NewEngine(UsingSpace(m), PairedLinks())
	if err != nil {
		t.Fatal(err)
	}
	exactZeta, exactPhi := exactEng.Zeta(), exactEng.Phi()

	approxEng, err := NewEngine(UsingSpace(m), PairedLinks(), WithApproxMetricity(32, 20000))
	if err != nil {
		t.Fatal(err)
	}
	// Sampling is lazy: nothing is drawn until ζ is first consumed.
	if approx, samples := approxEng.MetricityApproximate(); !approx || samples != 0 {
		t.Fatalf("before Zeta: MetricityApproximate = (%v, %d), want (true, 0)", approx, samples)
	}
	if z := approxEng.Zeta(); z > exactZeta*(1+1e-9) || z < 1 {
		t.Fatalf("sampled zeta %v out of (floor, exact %v]", z, exactZeta)
	}
	if approx, samples := approxEng.MetricityApproximate(); !approx || samples != 20000 {
		t.Fatalf("after Zeta: MetricityApproximate = (%v, %d), want (true, 20000)", approx, samples)
	}
	if phi := approxEng.Phi(); phi > exactPhi+1e-9 {
		t.Fatalf("sampled phi %v exceeds exact %v", phi, exactPhi)
	}
	// The quasi-metric and scheduling stack consume the estimate without
	// triggering the exact scan.
	if qm := approxEng.QuasiMetric(); qm.Zeta() != approxEng.Zeta() {
		t.Fatalf("quasi-metric zeta %v != engine zeta %v", qm.Zeta(), approxEng.Zeta())
	}

	// Below the threshold: exact path, no sampling.
	belowEng, err := NewEngine(UsingSpace(m), PairedLinks(), WithApproxMetricity(1000, 20000))
	if err != nil {
		t.Fatal(err)
	}
	if approx, _ := belowEng.MetricityApproximate(); approx {
		t.Fatal("engine below threshold reports approximate metricity")
	}
	if z := belowEng.Zeta(); !relClose(z, exactZeta, 1e-12) {
		t.Fatalf("below-threshold zeta %v != exact %v", z, exactZeta)
	}
}

// TestApproxMetricityDeterministic: two identical engines report identical
// sampled estimates (fixed internal seed).
func TestApproxMetricityDeterministic(t *testing.T) {
	m := randomMatrix(t, 48, 91)
	mk := func() (float64, float64) {
		e, err := NewEngine(UsingSpace(m), PairedLinks(), WithApproxMetricity(16, 5000))
		if err != nil {
			t.Fatal(err)
		}
		return e.Zeta(), e.Phi()
	}
	z1, p1 := mk()
	z2, p2 := mk()
	if z1 != z2 || p1 != p2 {
		t.Fatalf("non-deterministic approx metricity: (%v,%v) vs (%v,%v)", z1, p1, z2, p2)
	}
}

// TestApproxMetricityRespectsKnownZeta: a supplied ζ wins over the sampled
// estimate, while ϕ still routes to the sampled estimator.
func TestApproxMetricityRespectsKnownZeta(t *testing.T) {
	m := randomMatrix(t, 40, 92)
	e, err := NewEngine(UsingSpace(m), PairedLinks(), KnownZeta(3.5), WithApproxMetricity(16, 4000))
	if err != nil {
		t.Fatal(err)
	}
	if z := e.Zeta(); z != 3.5 {
		t.Fatalf("zeta %v, want supplied 3.5", z)
	}
	if approx, samples := e.MetricityApproximate(); !approx || samples != 0 {
		t.Fatalf("MetricityApproximate = (%v, %d), want (true, 0)", approx, samples)
	}
}

func TestApproxMetricityOptionValidation(t *testing.T) {
	m := randomMatrix(t, 8, 93)
	for _, args := range [][2]int{{0, 100}, {100, 0}, {-1, -1}} {
		if _, err := NewEngine(UsingSpace(m), PairedLinks(), WithApproxMetricity(args[0], args[1])); err == nil {
			t.Errorf("WithApproxMetricity(%d, %d) accepted", args[0], args[1])
		}
	}
}
