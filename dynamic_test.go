package decaynet_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"decaynet"
	"decaynet/internal/race"
)

// freshTwin builds an immutable engine over a snapshot of eng's current
// (mutated) state — same links, β, noise, and KnownZeta when the session
// still carries an analytic ζ — the from-scratch reference the equivalence
// property compares against.
func freshTwin(t *testing.T, eng *decaynet.Engine, knownZeta float64) *decaynet.Engine {
	t.Helper()
	m := decaynet.Materialize(eng.Space()) // snapshot the mutated matrix
	opts := []decaynet.EngineOption{
		decaynet.UsingSpace(m),
		decaynet.UsingLinks(eng.Links()...),
		decaynet.Beta(eng.System().Beta()),
		decaynet.Noise(eng.System().Noise()),
	}
	if knownZeta > 0 {
		opts = append(opts, decaynet.KnownZeta(knownZeta))
	}
	fresh, err := decaynet.NewEngine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// assertEquivalent checks the acceptance property: every product of the
// mutated session equals the same product computed from scratch on the
// mutated instance — exactly, since repair re-evaluates the identical
// expressions over identical inputs.
func assertEquivalent(t *testing.T, tag string, eng, fresh *decaynet.Engine) {
	t.Helper()
	if got, want := eng.Zeta(), fresh.Zeta(); got != want {
		t.Fatalf("%s: zeta %v, fresh %v", tag, got, want)
	}
	if got, want := eng.Phi(), fresh.Phi(); got != want {
		t.Fatalf("%s: phi %v, fresh %v", tag, got, want)
	}
	p := eng.UniformPower(1)
	ae, af := eng.Affectances(p), fresh.Affectances(p)
	if ae.N() != af.N() {
		t.Fatalf("%s: affectance sizes %d vs %d", tag, ae.N(), af.N())
	}
	for w := 0; w < ae.N(); w++ {
		for v := 0; v < ae.N(); v++ {
			if ae.Raw(w, v) != af.Raw(w, v) {
				t.Fatalf("%s: affectance (%d,%d) %v, fresh %v", tag, w, v, ae.Raw(w, v), af.Raw(w, v))
			}
		}
	}
	qe, qf := eng.QuasiMetric().Dense(), fresh.QuasiMetric().Dense()
	for i := range qe {
		if qe[i] != qf[i] {
			t.Fatalf("%s: quasi-metric entry %d: %v vs %v", tag, i, qe[i], qf[i])
		}
	}
	for _, pw := range []decaynet.Power{p, eng.LinearPower(1)} {
		ce, cf := eng.Capacity(pw, nil), fresh.Capacity(pw, nil)
		if !equalInts(ce, cf) {
			t.Fatalf("%s: capacity %v, fresh %v", tag, ce, cf)
		}
		se, errE := eng.Schedule(pw, nil)
		sf, errF := fresh.Schedule(pw, nil)
		if (errE == nil) != (errF == nil) {
			t.Fatalf("%s: schedule errs %v vs %v", tag, errE, errF)
		}
		if errE == nil && !equalSlots(se, sf) {
			t.Fatalf("%s: schedule %v, fresh %v", tag, se, sf)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalSlots(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalInts(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestMutatedEngineEquivalence drives mutation sequences over asymmetric
// (random-matrix) sessions at n = 8..256 and checks the mutated session's
// products against a from-scratch engine after every batch.
func TestMutatedEngineEquivalence(t *testing.T) {
	for _, tc := range []struct {
		n, steps int
		everyN   bool // compare after every step (small n) or only at the end
	}{
		{n: 8, steps: 6, everyN: true},
		{n: 32, steps: 6, everyN: true},
		{n: 96, steps: 4, everyN: false},
		{n: 256, steps: 3, everyN: false},
	} {
		eng, err := decaynet.NewEngine(
			decaynet.UsingScenario("random", decaynet.ScenarioConfig{Nodes: tc.n, Seed: uint64(tc.n)}),
			decaynet.Noise(0.01),
			decaynet.WithMutationTracking(),
		)
		if err != nil {
			t.Fatal(err)
		}
		// Warm every cache so Update exercises repair, not lazy rebuild.
		eng.Zeta()
		eng.Phi()
		eng.Affectances(eng.UniformPower(1))

		src := newTestRand(uint64(tc.n) * 1013)
		for step := 0; step < tc.steps; step++ {
			m := stepMutation(src, tc.n, eng.Len(), step)
			v := eng.Version()
			if err := eng.Update(m); err != nil {
				t.Fatalf("n=%d step=%d: %v", tc.n, step, err)
			}
			if eng.Version() != v+1 {
				t.Fatalf("n=%d step=%d: version %d, want %d", tc.n, step, eng.Version(), v+1)
			}
			if tc.everyN {
				assertEquivalent(t, tname(tc.n, step), eng, freshTwin(t, eng, 0))
			}
		}
		if !tc.everyN {
			assertEquivalent(t, tname(tc.n, -1), eng, freshTwin(t, eng, 0))
		}
	}
}

// TestChurnReplayEquivalence replays the "churn" scenario's deterministic
// mutation stream — node moves and link churn over a symmetric geometric
// base — and checks equivalence, including that the analytic ζ = α
// survives pure moves.
func TestChurnReplayEquivalence(t *testing.T) {
	cfg := decaynet.ScenarioConfig{Links: 20, Seed: 5}
	eng, err := decaynet.NewEngine(
		decaynet.UsingScenario("churn", cfg),
		decaynet.Noise(0.001),
		decaynet.WithMutationTracking(),
	)
	if err != nil {
		t.Fatal(err)
	}
	alpha := eng.Zeta() // analytic: ζ = α
	eng.Phi()
	eng.Affectances(eng.UniformPower(1))
	stream, err := decaynet.ChurnStream(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range stream {
		if err := eng.Update(m); err != nil {
			t.Fatalf("churn step %d: %v", i, err)
		}
	}
	if got := eng.Zeta(); got != alpha {
		t.Fatalf("analytic zeta lost across moves: %v, want %v", got, alpha)
	}
	if eng.Version() != uint64(len(stream)) {
		t.Fatalf("version %d after %d steps", eng.Version(), len(stream))
	}
	assertEquivalent(t, "churn", eng, freshTwin(t, eng, alpha))

	// A move whose recomputed decay overflows (or underflows) Def 2.1 is
	// rejected up front, leaving the session untouched.
	v := eng.Version()
	if err := eng.MoveNode(0, decaynet.Pt(1e200, 0)); err == nil {
		t.Fatal("MoveNode accepted an overflowing position")
	}
	if eng.Version() != v {
		t.Fatal("rejected move bumped the version")
	}
	if got := eng.Zeta(); got != alpha {
		t.Fatalf("rejected move corrupted the session: zeta %v", got)
	}

	// A decay retune voids the analytic ζ: the session switches to the
	// computed value of the mutated (no longer purely geometric) space.
	if err := eng.SetDecay(0, 1, 123); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, "churn+retune", eng, freshTwin(t, eng, 0))
}

// TestUpdateConcurrentReaders interleaves Update with the cached-product
// readers; run under -race this is the session-lock soundness check.
func TestUpdateConcurrentReaders(t *testing.T) {
	n := 48
	eng, err := decaynet.NewEngine(
		decaynet.UsingScenario("random", decaynet.ScenarioConfig{Nodes: n, Seed: 9}),
		decaynet.Noise(0.01),
		decaynet.WithMutationTracking(),
	)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// An Update adding a link between UniformPower and a
				// read leaves p one entry short: the read reports
				// ErrPowerMismatch and the reader rebuilds its vector.
				p := eng.UniformPower(1)
				eng.Zeta()
				eng.Phi()
				eng.Affectances(p)
				eng.Capacity(p, nil)
				if _, err := eng.Schedule(p, nil); errors.Is(err, decaynet.ErrPowerMismatch) {
					continue
				} else if err != nil {
					t.Error(err)
					return
				}
				eng.Version()
				eng.Links()
			}
		}(r)
	}
	src := newTestRand(77)
	for step := 0; step < 25; step++ {
		r := src.intn(n)
		row := make([]float64, n)
		for j := range row {
			if j != r {
				row[j] = src.rangef(0.5, 50)
			}
		}
		m := decaynet.Mutation{SetRows: map[int][]float64{r: row}}
		if step%5 == 4 {
			a, b := src.intn(n), src.intn(n)
			if a != b {
				m.AddLinks = []decaynet.Link{{Sender: a, Receiver: b}}
			}
		}
		if err := eng.Update(m); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	assertEquivalent(t, "concurrent", eng, freshTwin(t, eng, 0))
}

// TestErrPowerMismatch pins the stale-power guard deterministically: a
// power vector built before AddLinks is one entry short afterwards, and
// every power-taking entry point rejects it — error forms with
// ErrPowerMismatch, error-less forms with their zero value — instead of
// panicking. A rebuilt vector serves again.
func TestErrPowerMismatch(t *testing.T) {
	for _, shards := range []int{0, 2} {
		opts := []decaynet.EngineOption{
			decaynet.UsingScenario("random", decaynet.ScenarioConfig{Nodes: 24, Seed: 4}),
			decaynet.Noise(0.01),
		}
		if shards > 0 {
			opts = append(opts, decaynet.WithShards(shards))
		}
		eng, err := decaynet.NewEngine(opts...)
		if err != nil {
			t.Fatal(err)
		}
		stale := eng.UniformPower(1)
		if err := eng.AddLinks(decaynet.Link{Sender: 0, Receiver: 5}); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		checkErr := func(name string, err error) {
			t.Helper()
			if !errors.Is(err, decaynet.ErrPowerMismatch) {
				t.Errorf("shards=%d %s: err = %v, want ErrPowerMismatch", shards, name, err)
			}
		}
		_, err = eng.AffectancesCtx(ctx, stale)
		checkErr("AffectancesCtx", err)
		_, err = eng.CapacityCtx(ctx, stale, nil)
		checkErr("CapacityCtx", err)
		_, err = eng.Schedule(stale, nil)
		checkErr("Schedule", err)
		_, err = eng.ScheduleCtx(ctx, stale, nil)
		checkErr("ScheduleCtx", err)
		_, err = eng.ScheduleWith(stale, nil, decaynet.Algorithm1)
		checkErr("ScheduleWith", err)
		_, err = eng.ScheduleFirstFit(stale, nil)
		checkErr("ScheduleFirstFit", err)
		checkErr("ValidateSchedule", eng.ValidateSchedule(stale, []int{0}, [][]int{{0}}))
		if eng.Affectances(stale) != nil || eng.Capacity(stale, nil) != nil ||
			eng.GreedyCapacity(stale, nil) != nil || eng.ExactCapacity(stale, []int{0, 1}) != nil ||
			eng.FirstFitCapacity(stale, nil) != nil || eng.Feasible(stale, []int{0}) {
			t.Errorf("shards=%d: an error-less form answered a stale power vector", shards)
		}
		fresh := eng.UniformPower(1)
		if eng.Affectances(fresh) == nil || len(eng.Capacity(fresh, nil)) == 0 {
			t.Errorf("shards=%d: rebuilt power vector not served", shards)
		}
		if _, err := eng.Schedule(fresh, nil); err != nil {
			t.Errorf("shards=%d: rebuilt power vector: %v", shards, err)
		}
	}
}

// TestCtxCancelledPromptly is the load-shedding acceptance check: a
// context cancelled mid-scan returns ctx.Err() from ZetaCtx and
// ScheduleCtx well within 100 ms.
func TestCtxCancelledPromptly(t *testing.T) {
	build := func() *decaynet.Engine {
		eng, err := decaynet.NewEngine(
			decaynet.UsingScenario("random", decaynet.ScenarioConfig{Nodes: 1500, Seed: 3}),
			decaynet.Noise(0.001),
		)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	// Pre-cancelled: deterministic immediate return.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	eng := build()
	if _, err := eng.ZetaCtx(pre); err != context.Canceled {
		t.Fatalf("pre-cancelled ZetaCtx err = %v", err)
	}
	// Cancelled mid-scan: the exact n=1500 scan runs for hundreds of
	// milliseconds uncancelled, so a 10 ms cancel interrupts it; the
	// kernels poll per row, so the return lands well under 100 ms after
	// the cancellation fires.
	ctx, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel2()
	}()
	start := time.Now()
	_, err := eng.ZetaCtx(ctx)
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("mid-scan ZetaCtx err = %v (elapsed %v)", err, elapsed)
	}
	// The <100ms promptness bound is a production-build property; the race
	// detector slows the instrumented kernels by an order of magnitude.
	if !race.Enabled && elapsed > 110*time.Millisecond {
		t.Fatalf("cancelled ZetaCtx took %v, want < 110ms", elapsed)
	}

	// ScheduleCtx on a cold session hits the same ζ scan first.
	eng2 := build()
	ctx2, cancel3 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel3()
	}()
	start = time.Now()
	_, err = eng2.ScheduleCtx(ctx2, eng2.UniformPower(1), nil)
	elapsed = time.Since(start)
	if err != context.Canceled {
		t.Fatalf("mid-scan ScheduleCtx err = %v (elapsed %v)", err, elapsed)
	}
	if !race.Enabled && elapsed > 110*time.Millisecond {
		t.Fatalf("cancelled ScheduleCtx took %v, want < 110ms", elapsed)
	}
	// The session recovers: a background-context call succeeds afterwards.
	if z := eng.Zeta(); z < 1 || math.IsNaN(z) {
		t.Fatalf("post-cancel Zeta = %v", z)
	}
}

// TestWithTargetPrecision drives the sampled estimators by half-width and
// surfaces both concentration summaries.
func TestWithTargetPrecision(t *testing.T) {
	eng, err := decaynet.NewEngine(
		decaynet.UsingScenario("random", decaynet.ScenarioConfig{Nodes: 128, Seed: 21}),
		decaynet.WithApproxMetricity(64, 512),
		decaynet.WithTargetPrecision(0.05),
	)
	if err != nil {
		t.Fatal(err)
	}
	z := eng.Zeta()
	est, ok := eng.ZetaEstimate()
	if !ok {
		t.Fatal("no zeta estimate after Zeta()")
	}
	if est.Value != z {
		t.Fatalf("estimate value %v, zeta %v", est.Value, z)
	}
	if est.HalfWidth95 > 0.05 {
		t.Fatalf("half-width %v above the 0.05 target", est.HalfWidth95)
	}
	if est.Evaluated <= 512 {
		t.Fatalf("target loop never grew the budget: evaluated %d", est.Evaluated)
	}
	// Fixed-budget engine for contrast: wider half-width, same routing.
	fixed, err := decaynet.NewEngine(
		decaynet.UsingScenario("random", decaynet.ScenarioConfig{Nodes: 128, Seed: 21}),
		decaynet.WithApproxMetricity(64, 512),
	)
	if err != nil {
		t.Fatal(err)
	}
	fixed.Zeta()
	fest, ok := fixed.ZetaEstimate()
	if !ok {
		t.Fatal("no estimate on fixed-budget engine")
	}
	if fest.Evaluated != 512 {
		t.Fatalf("fixed budget evaluated %d, want 512", fest.Evaluated)
	}
}

// TestPhiEstimate closes the satellite: the sampled ϕ path surfaces its
// concentration summary just like ζ's.
func TestPhiEstimate(t *testing.T) {
	eng, err := decaynet.NewEngine(
		decaynet.UsingScenario("random", decaynet.ScenarioConfig{Nodes: 96, Seed: 2}),
		decaynet.WithApproxMetricity(64, 2048),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.PhiEstimate(); ok {
		t.Fatal("PhiEstimate available before Phi was consumed")
	}
	phi := eng.Phi()
	est, ok := eng.PhiEstimate()
	if !ok {
		t.Fatal("no phi estimate after Phi()")
	}
	if got := math.Log2(est.Value); got != phi {
		t.Fatalf("phi %v, estimate log2 %v", phi, got)
	}
	if est.Strata == 0 || est.HalfWidth95 <= 0 {
		t.Fatalf("degenerate phi estimate: %+v", est)
	}
	// Exact engines expose no sampling summary.
	exact, err := decaynet.NewEngine(
		decaynet.UsingScenario("random", decaynet.ScenarioConfig{Nodes: 16, Seed: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	exact.Phi()
	if _, ok := exact.PhiEstimate(); ok {
		t.Fatal("exact engine reported a phi sampling estimate")
	}
}

// TestQuasiMetricSnapshot: a quasi-metric handed out before an Update is
// a frozen snapshot of the pre-mutation session, even when the caller
// never touched it before mutating.
func TestQuasiMetricSnapshot(t *testing.T) {
	eng, err := decaynet.NewEngine(
		decaynet.UsingScenario("random", decaynet.ScenarioConfig{Nodes: 10, Seed: 8}),
		decaynet.WithMutationTracking(),
	)
	if err != nil {
		t.Fatal(err)
	}
	qm := eng.QuasiMetric() // handed out untouched
	before := qm.D(0, 1)
	f01 := eng.Space().F(0, 1)
	if err := eng.SetDecay(0, 1, f01*1000); err != nil {
		t.Fatal(err)
	}
	if got := qm.D(0, 1); got != before {
		t.Fatalf("pre-update snapshot moved: D(0,1) %v, was %v", got, before)
	}
	after := eng.QuasiMetric().D(0, 1)
	if after == before {
		t.Fatal("post-update quasi-metric did not reflect the mutation")
	}
}

// TestUpdateValidationAtomic: a bad batch leaves the session untouched.
func TestUpdateValidationAtomic(t *testing.T) {
	n := 12
	eng, err := decaynet.NewEngine(
		decaynet.UsingScenario("random", decaynet.ScenarioConfig{Nodes: n, Seed: 4}),
		decaynet.Noise(0.01),
	)
	if err != nil {
		t.Fatal(err)
	}
	zeta := eng.Zeta()
	goodRow := make([]float64, n)
	for j := range goodRow {
		if j != 0 {
			goodRow[j] = 2
		}
	}
	bad := decaynet.Mutation{
		SetRows:  map[int][]float64{0: goodRow},
		AddLinks: []decaynet.Link{{Sender: 1, Receiver: 1}}, // invalid
	}
	if err := eng.Update(bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if eng.Version() != 0 {
		t.Fatal("failed update bumped the version")
	}
	if eng.Zeta() != zeta {
		t.Fatal("failed update mutated the space")
	}
	if err := eng.MoveNode(0, decaynet.Pt(1, 1)); err == nil {
		t.Fatal("MoveNode accepted on a session without geometry")
	}
	if err := eng.Update(decaynet.Mutation{}); err != nil {
		t.Fatal(err)
	}
	if eng.Version() != 0 {
		t.Fatal("no-op update bumped the version")
	}
}

// stepMutation builds the step'th mutation of the shared equivalence
// harness — row retunes, point edits, or link churn plus a retune — from
// the deterministic source. links is the engine's current link count
// (identical across engines replaying the same stream, so two engines fed
// the same source see the same mutations).
func stepMutation(src *testRand, n, links, step int) decaynet.Mutation {
	var m decaynet.Mutation
	switch step % 3 {
	case 0: // retune a couple of rows
		m.SetRows = map[int][]float64{}
		for k := 0; k < 2; k++ {
			r := src.intn(n)
			row := make([]float64, n)
			for j := range row {
				if j != r {
					row[j] = src.rangef(0.5, 50)
				}
			}
			m.SetRows[r] = row
		}
	case 1: // point edits
		for k := 0; k < 3; k++ {
			i, j := src.intn(n), src.intn(n)
			if i == j {
				j = (j + 1) % n
			}
			m.SetDecays = append(m.SetDecays, decaynet.DecayEdit{I: i, J: j, F: src.rangef(0.5, 50)})
		}
	case 2: // link churn plus a row retune in one batch
		if links > 1 {
			m.RemoveLinks = []int{src.intn(links)}
		}
		a, b := src.intn(n), src.intn(n)
		if a != b {
			m.AddLinks = []decaynet.Link{{Sender: a, Receiver: b}}
		}
		r := src.intn(n)
		row := make([]float64, n)
		for j := range row {
			if j != r {
				row[j] = src.rangef(0.5, 50)
			}
		}
		m.SetRows = map[int][]float64{r: row}
	}
	return m
}

// tname labels equivalence failures.
func tname(n, step int) string {
	if step < 0 {
		return "n=" + itoa(n) + " final"
	}
	return "n=" + itoa(n) + " step=" + itoa(step)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// testRand is a tiny deterministic generator (SplitMix64) for test-side
// mutation streams, independent of the library's internal rng package.
type testRand struct{ state uint64 }

func newTestRand(seed uint64) *testRand { return &testRand{state: seed} }

func (r *testRand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *testRand) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *testRand) rangef(lo, hi float64) float64 {
	return lo + (hi-lo)*(float64(r.next()>>11)/(1<<53))
}
