// Package experiments implements the reproduction suite E1–E14: one
// experiment per theorem/claim of the paper (arXiv 1402.5003), each
// returning a Report whose rows are the series the claim predicts.
// cmd/decaybench prints them; the root bench_test.go wraps each in a
// testing.B benchmark.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"decaynet/internal/capacity"
	"decaynet/internal/core"
	"decaynet/internal/distributed"
	"decaynet/internal/environment"
	"decaynet/internal/geom"
	"decaynet/internal/graph"
	"decaynet/internal/hardness"
	"decaynet/internal/rng"
	"decaynet/internal/scenario"
	"decaynet/internal/sinr"
	"decaynet/internal/stats"
)

// Report is one experiment's outcome.
type Report struct {
	ID    string
	Title string
	// Claim is the paper statement under test.
	Claim string
	// Table holds the measured series.
	Table *stats.Table
	// Notes records derived quantities (fit exponents, pass/fail flags).
	Notes []string
}

// String renders the report for terminal output.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s\n", r.ID, r.Title)
	fmt.Fprintf(&sb, "claim: %s\n", r.Claim)
	sb.WriteString(r.Table.String())
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func (r *Report) notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// planeSystem builds a standard plane workload bound to geometric decay,
// through the scenario registry ("plane" with the default 1–3 length
// range, so the generated instances match the pre-registry suite).
func planeSystem(seed uint64, links int, alpha, side float64) (*sinr.System, error) {
	inst, err := scenario.Build("plane", scenario.Config{
		Links: links, Side: side, Alpha: alpha, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return inst.System()
}

// E1TheoryTransfer verifies Proposition 1 operationally: running the
// general-metric greedy on a decay space D and on the reconstruction
// f' = d^ζ of its induced quasi-metric yields the same solution, on both
// random matrices and environment-derived spaces.
func E1TheoryTransfer() (*Report, error) {
	r := &Report{
		ID:    "E1",
		Title: "theory transfer (Proposition 1)",
		Claim: "metric-space results applied to the quasi-metric with path loss ζ solve the decay-space instance",
		Table: stats.NewTable("instance", "zeta", "|greedy(D)|", "|greedy(D')|", "identical"),
	}
	type namedSpace struct {
		name  string
		space core.Space
	}
	var cases []namedSpace
	randInst, err := scenario.Build("random", scenario.Config{
		Nodes: 40, Seed: 42, Params: map[string]float64{"lo": 0.5, "hi": 40},
	})
	if err != nil {
		return nil, err
	}
	cases = append(cases, namedSpace{"random-40", randInst.Space})
	sc, err := environment.Office(environment.OfficeConfig{RoomsX: 3, RoomsY: 3, RoomSize: 12, DoorWidth: 2})
	if err != nil {
		return nil, err
	}
	sc.PathLossExp = 3
	sc.ShadowSigmaDB = 4
	sc.Seed = 7
	w, h := environment.OfficeExtent(environment.OfficeConfig{RoomsX: 3, RoomsY: 3, RoomSize: 12})
	envSpace, err := sc.BuildSpace(environment.RandomNodes(40, w, h, 9))
	if err != nil {
		return nil, err
	}
	cases = append(cases, namedSpace{"office-40", envSpace})

	for _, c := range cases {
		links := make([]sinr.Link, c.space.N()/2)
		for i := range links {
			links[i] = sinr.Link{Sender: 2 * i, Receiver: 2*i + 1}
		}
		sysD, err := (&scenario.Instance{Space: c.space, Links: links}).System()
		if err != nil {
			return nil, err
		}
		zeta := sysD.Zeta()
		// Reconstruct the space from quasi-distances: f' = d^ζ == f.
		qm := sysD.QuasiMetric()
		prime, err := core.FromFunc(c.space.N(), func(i, j int) float64 {
			return math.Pow(qm.D(i, j), zeta)
		})
		if err != nil {
			return nil, err
		}
		sysP, err := (&scenario.Instance{Space: prime, Links: links, KnownZeta: zeta}).System()
		if err != nil {
			return nil, err
		}
		a := capacity.GreedyGeneral(sysD, sinr.UniformPower(sysD, 1), capacity.AllLinks(sysD))
		b := capacity.GreedyGeneral(sysP, sinr.UniformPower(sysP, 1), capacity.AllLinks(sysP))
		identical := len(a) == len(b)
		for i := 0; identical && i < len(a); i++ {
			identical = a[i] == b[i]
		}
		r.Table.AddRow(c.name, zeta, len(a), len(b), identical)
		if !identical {
			r.notef("%s: transfer mismatch", c.name)
		}
	}
	return r, nil
}

// E2MetricityGeometric verifies ζ = α for geometric decay, and contrasts it
// with office environments where ζ exceeds the path-loss exponent.
func E2MetricityGeometric() (*Report, error) {
	r := &Report{
		ID:    "E2",
		Title: "metricity of geometric vs realistic spaces",
		Claim: "ζ = α under geometric path loss; environments push ζ above α",
		Table: stats.NewTable("space", "alpha", "zeta", "zeta-alpha"),
	}
	for _, alpha := range []float64{1, 2, 3, 4, 6} {
		sys, err := planeSystem(1, 16, alpha, 60)
		if err != nil {
			return nil, err
		}
		z := core.Zeta(sys.Space())
		r.Table.AddRow("plane", alpha, z, z-alpha)
	}
	for _, sigma := range []float64{0, 4, 8} {
		sc, err := environment.Office(environment.OfficeConfig{RoomsX: 3, RoomsY: 3, RoomSize: 12, DoorWidth: 2})
		if err != nil {
			return nil, err
		}
		sc.PathLossExp = 3
		sc.ShadowSigmaDB = sigma
		sc.Seed = 5
		envSpace, err := sc.BuildSpace(environment.RandomNodes(30, 36, 36, 6))
		if err != nil {
			return nil, err
		}
		z := core.Zeta(envSpace)
		r.Table.AddRow(fmt.Sprintf("office(sigma=%g)", sigma), 3.0, z, z-3)
	}
	return r, nil
}

// E3FadingBound measures γ(r) on plane grids against the Theorem 2 bound
// C·2^(A+1)(ζ̂(2−A)−1), using the analytic dimension A = 2/α and the
// measured packing constant.
func E3FadingBound() (*Report, error) {
	r := &Report{
		ID:    "E3",
		Title: "fading parameter vs Theorem 2 bound",
		Claim: "γ(r) ≤ C·2^(A+1)·(ζ̂(2−A)−1) for Assouad dimension A < 1",
		Table: stats.NewTable("alpha", "A", "r", "gamma", "bound", "within"),
	}
	pts := gridPoints(6, 1)
	for _, alpha := range []float64{3, 4, 6} {
		g, err := core.NewGeometricSpace(pts, alpha)
		if err != nil {
			return nil, err
		}
		a := 2 / alpha
		c := 1.0
		for _, q := range []float64{2, 4, 8} {
			profile := core.PackingProfile(g, q, core.AssouadOptions{Qs: []float64{q}})
			if need := float64(profile) / math.Pow(q, a); need > c {
				c = need
			}
		}
		bound := core.Theorem2Bound(c, a)
		for _, rr := range []float64{1, 4, 16} {
			gamma := core.FadingParameter(g, rr)
			r.Table.AddRow(alpha, a, rr, gamma, bound, gamma <= bound)
			if gamma > bound {
				r.notef("alpha=%v r=%v: bound violated", alpha, rr)
			}
		}
	}
	return r, nil
}

// E4Star reproduces the Sec 3.4 star example: unbounded doubling dimension
// with vanishing relative interference.
func E4Star() (*Report, error) {
	r := &Report{
		ID:    "E4",
		Title: "star example (Sec 3.4)",
		Claim: "doubling dimension grows with k yet interference at x_{-1} is ~1/k of the signal",
		Table: stats.NewTable("k", "packing-profile", "interference", "signal", "ratio"),
	}
	for _, k := range []int{4, 8, 16, 32, 64} {
		star, err := hardness.Star(k, 2)
		if err != nil {
			return nil, err
		}
		profile := core.PackingProfile(star, 8, core.AssouadOptions{Qs: []float64{8}})
		leaves := make([]int, k)
		for i := range leaves {
			leaves[i] = i + 1
		}
		inter := core.InterferenceAt(star, leaves, k+1, 1)
		signal := 1 / star.F(0, k+1)
		r.Table.AddRow(k, profile, inter, signal, inter/signal)
	}
	r.notef("packing profile grows ~linearly in k (unbounded doubling); interference/signal shrinks ~1/k")
	return r, nil
}

// E5Algorithm1 measures Algorithm 1's approximation ratio against the exact
// optimum across α (= ζ on the plane), the paper's headline ζ^O(1) claim.
func E5Algorithm1() (*Report, error) {
	r := &Report{
		ID:    "E5",
		Title: "Algorithm 1 approximation vs ζ (Theorem 5)",
		Claim: "uniform-power CAPACITY is ζ^O(1)-approximable in bounded growth; first sub-exponential-in-α plane bound",
		Table: stats.NewTable("alpha", "n", "opt", "alg1", "greedy", "ratio-alg1", "ratio-greedy"),
	}
	var alphas, ratios []float64
	for _, alpha := range []float64{1, 2, 3, 4, 6} {
		var ratioSum float64
		const trials = 3
		var optN, a1N, grN int
		for trial := uint64(0); trial < trials; trial++ {
			sys, err := planeSystem(10+trial, 16, alpha, 18)
			if err != nil {
				return nil, err
			}
			p := sinr.UniformPower(sys, 1)
			all := capacity.AllLinks(sys)
			opt := capacity.Exact(sys, p, all)
			a1 := capacity.Algorithm1(sys, p, all)
			gr := capacity.GreedyGeneral(sys, p, all)
			optN += len(opt)
			a1N += len(a1)
			grN += len(gr)
			ratioSum += capacity.Ratio(opt, a1)
		}
		ratio := ratioSum / trials
		r.Table.AddRow(alpha, 16, optN, a1N, grN,
			ratio, float64(optN)/math.Max(1, float64(grN)))
		alphas = append(alphas, alpha)
		ratios = append(ratios, ratio)
	}
	if k, _, r2, err := stats.PowerFit(alphas, ratios); err == nil {
		r.notef("ratio ~ alpha^%.2f (r2=%.2f): polynomial, not exponential, in ζ", k, r2)
	}
	return r, nil
}

// E6Theorem3 builds the general-space hardness instances: feasible sets are
// independent sets, ζ ≈ lg(2n), and greedy capacity trails the optimum.
func E6Theorem3() (*Report, error) {
	r := &Report{
		ID:    "E6",
		Title: "Theorem 3 hardness structure",
		Claim: "CAPACITY ≡ MAX-IS on instances with ζ ≈ lg n ⇒ 2^(ζ(1−o(1))) inapproximability",
		Table: stats.NewTable("n", "zeta", "lg(2n)", "opt(=maxIS)", "greedy", "ratio"),
	}
	for _, n := range []int{8, 16, 32} {
		g := graph.GNP(n, 0.3, rng.New(uint64(n)))
		inst, err := hardness.Theorem3(g)
		if err != nil {
			return nil, err
		}
		sys, err := inst.System()
		if err != nil {
			return nil, err
		}
		p := sinr.UniformPower(sys, 1)
		opt := len(g.MaxIndependentSet())
		greedy := len(capacity.GreedyGeneral(sys, p, capacity.AllLinks(sys)))
		zeta := core.Zeta(inst.Space)
		r.Table.AddRow(n, zeta, math.Log2(2*float64(n)), opt, greedy,
			float64(opt)/math.Max(1, float64(greedy)))
	}
	return r, nil
}

// E7Theorem6 examines the bounded-growth hardness construction: feasibility
// still encodes MAX-IS while ϕ = O(n) and the growth parameters stay small.
func E7Theorem6() (*Report, error) {
	r := &Report{
		ID:    "E7",
		Title: "Theorem 6 two-line construction",
		Claim: "bounded growth (small doubling & independence dims) yet 2^(φ(1−o(1)))-hard; ϕ = O(n)",
		Table: stats.NewTable("n", "alpha'", "varphi", "varphi/n", "indep-dim", "opt", "greedy"),
	}
	for _, n := range []int{8, 12, 16} {
		for _, alphaPrime := range []float64{1, 2} {
			g := graph.GNP(n, 0.3, rng.New(uint64(n)*7+uint64(alphaPrime)))
			inst, err := hardness.Theorem6(g, alphaPrime, 0.25)
			if err != nil {
				return nil, err
			}
			sys, err := inst.System()
			if err != nil {
				return nil, err
			}
			p := sinr.UniformPower(sys, 1)
			opt := len(g.MaxIndependentSet())
			greedy := len(capacity.GreedyGeneral(sys, p, capacity.AllLinks(sys)))
			varphi := core.Varphi(inst.Space)
			dim := hardness.IndependenceDimension(inst.Space)
			r.Table.AddRow(n, alphaPrime, varphi, varphi/float64(n), dim, opt, greedy)
		}
	}
	return r, nil
}

// E8ZetaPhiGap traces the Sec 4.2 family separating ζ from φ.
func E8ZetaPhiGap() (*Report, error) {
	r := &Report{
		ID:    "E8",
		Title: "ζ vs φ gap family (Sec 4.2)",
		Claim: "φ ≤ ζ always (transfer direction); converse fails: ϕ ≤ 2 while ζ = Θ(log q/log log q)",
		Table: stats.NewTable("q", "varphi", "phi", "zeta", "log q/log log q"),
	}
	for _, q := range []float64{1e2, 1e3, 1e4, 1e6, 1e8} {
		m, err := hardness.GapFamily(q)
		if err != nil {
			return nil, err
		}
		z := core.Zeta(m)
		phi := core.Phi(m)
		ref := math.Log(q) / math.Log(math.Log(q))
		r.Table.AddRow(q, core.Varphi(m), phi, z, ref)
		if phi > z+1e-9 {
			r.notef("q=%g: phi exceeded zeta", q)
		}
	}
	r.notef("the arXiv text states 'ζ ≤ φ'; its own example and the transfer argument give φ ≤ ζ, which is what we verify")
	return r, nil
}

// E9Welzl contrasts the two growth dimensions: Welzl's construction
// (doubling 1, independence unbounded) and the uniform space (independence
// 1, doubling unbounded).
func E9Welzl() (*Report, error) {
	r := &Report{
		ID:    "E9",
		Title: "doubling vs independence dimension (Sec 4.1)",
		Claim: "the two growth dimensions are incomparable",
		Table: stats.NewTable("space", "n", "indep-dim", "doubling-const"),
	}
	for _, n := range []int{4, 8, 12} {
		w, err := hardness.Welzl(n, 0.25)
		if err != nil {
			return nil, err
		}
		dim := hardness.IndependenceDimension(w)
		dc := core.DoublingConstant(core.NewQuasiMetric(w, core.Zeta(w)), 32)
		r.Table.AddRow("welzl", n, dim, dc)
	}
	for _, n := range []int{6, 12, 24} {
		u, err := core.UniformSpace(n, 1)
		if err != nil {
			return nil, err
		}
		dim := hardness.IndependenceDimension(u)
		dc := core.DoublingConstant(core.NewQuasiMetric(u, 1), 32)
		r.Table.AddRow("uniform", n, dim, dc)
	}
	return r, nil
}

// E10Strengthening measures Lemma B.1's class counts against ⌈2q/p⌉².
func E10Strengthening() (*Report, error) {
	r := &Report{
		ID:    "E10",
		Title: "signal strengthening (Lemma B.1)",
		Claim: "a p-feasible set splits into ≤ ⌈2q/p⌉² q-feasible classes",
		Table: stats.NewTable("q", "classes", "bound", "within", "all-q-feasible"),
	}
	sys, err := planeSystem(31, 60, 3, 50)
	if err != nil {
		return nil, err
	}
	p := sinr.UniformPower(sys, 1)
	base := sinr.SignalStrengthen(sys, p, capacity.AllLinks(sys), 1)[0]
	for _, q := range []float64{2, 4, 8, 16} {
		classes := sinr.SignalStrengthen(sys, p, base, q)
		bound := sinr.StrengthenBound(1, q)
		allOK := true
		for _, class := range classes {
			if !sinr.IsKFeasible(sys, p, class, q) {
				allOK = false
			}
		}
		r.Table.AddRow(q, len(classes), bound, len(classes) <= bound, allOK)
	}
	return r, nil
}

// E11Separation measures Lemma 4.1's ζ-separated partition sizes across α.
func E11Separation() (*Report, error) {
	r := &Report{
		ID:    "E11",
		Title: "separation partitions (Lemmas B.2, B.3, 4.1)",
		Claim: "feasible sets split into O(ζ^(2A')) ζ-separated classes",
		Table: stats.NewTable("alpha(=zeta)", "base-size", "classes", "zeta^(2A')/classes"),
	}
	var zs, cs []float64
	for _, alpha := range []float64{2, 3, 4, 6} {
		sys, err := planeSystem(37, 60, alpha, 50)
		if err != nil {
			return nil, err
		}
		p := sinr.UniformPower(sys, 1)
		base := sinr.SignalStrengthen(sys, p, capacity.AllLinks(sys), 1)[0]
		classes := sinr.SparsifyFeasible(sys, p, base)
		ref := math.Pow(alpha, 4) // A' = 2 on the plane
		r.Table.AddRow(alpha, len(base), len(classes), ref/float64(len(classes)))
		zs = append(zs, alpha)
		cs = append(cs, float64(len(classes)))
	}
	if k, _, r2, err := stats.PowerFit(zs, cs); err == nil {
		r.notef("classes ~ zeta^%.2f (r2=%.2f), within the ζ^4 envelope", k, r2)
	}
	return r, nil
}

// E12Amicability measures Theorem 4's h and c constants across α.
func E12Amicability() (*Report, error) {
	r := &Report{
		ID:    "E12",
		Title: "amicability (Def 4.2 / Theorem 4)",
		Claim: "bounded-growth instances are O(D·ζ^(2A'))-amicable",
		Table: stats.NewTable("alpha(=zeta)", "|S|", "|S'|", "h", "c", "bound D*zeta^4"),
	}
	for _, alpha := range []float64{2, 3, 4} {
		sys, err := planeSystem(41, 50, alpha, 45)
		if err != nil {
			return nil, err
		}
		p := sinr.UniformPower(sys, 1)
		base := sinr.SignalStrengthen(sys, p, capacity.AllLinks(sys), 1)[0]
		w := sinr.ExtractAmicable(sys, p, base)
		bound := sinr.Theorem4Bound(6, alpha, 2)
		r.Table.AddRow(alpha, len(base), len(w.Subset), w.H, w.C, bound)
	}
	return r, nil
}

// E13Broadcast runs randomized local broadcast across densities and relates
// completion time to the measured fading parameter γ.
func E13Broadcast() (*Report, error) {
	r := &Report{
		ID:    "E13",
		Title: "local broadcast vs fading parameter (Sec 3)",
		Claim: "annulus-argument algorithms complete in time scaling with γ",
		Table: stats.NewTable("grid", "spacing", "gamma(r)", "rounds", "done"),
	}
	type cfg struct {
		k       int
		spacing float64
	}
	for _, c := range []cfg{{3, 8}, {4, 6}, {5, 4}} {
		pts := gridPoints(c.k, c.spacing)
		g, err := core.NewGeometricSpace(pts, 3)
		if err != nil {
			return nil, err
		}
		radius := math.Pow(c.spacing, 3) * 1.01
		gamma := core.FadingParameter(g, radius)
		sim, err := distributed.NewSim(g, distributed.Params{Power: 1, Beta: 1})
		if err != nil {
			return nil, err
		}
		res, err := sim.LocalBroadcast(radius, 0.25, 50000, 5)
		if err != nil {
			return nil, err
		}
		r.Table.AddRow(fmt.Sprintf("%dx%d", c.k, c.k), c.spacing, gamma, res.Rounds, res.Done)
	}
	return r, nil
}

// E14LinkQuality measures the motivating observation: rank correlation of
// decay with distance collapses in realistic scenes while staying 1 in free
// space.
func E14LinkQuality() (*Report, error) {
	r := &Report{
		ID:    "E14",
		Title: "link quality vs distance (motivation, [5]/[24])",
		Claim: "in realistic environments link quality is not correlated with distance",
		Table: stats.NewTable("scene", "spearman", "zeta"),
	}
	add := func(name string, sc *environment.Scene, nodes []environment.Node) error {
		space, err := sc.BuildSpace(nodes)
		if err != nil {
			return err
		}
		var dists, decays []float64
		for i := range nodes {
			for j := range nodes {
				if i != j {
					dists = append(dists, nodes[i].Pos.Dist(nodes[j].Pos))
					decays = append(decays, space.F(i, j))
				}
			}
		}
		rho, err := stats.SpearmanCorrelation(dists, decays)
		if err != nil {
			return err
		}
		r.Table.AddRow(name, rho, core.Zeta(space))
		return nil
	}
	free := &environment.Scene{PathLossExp: 3}
	if err := add("free-space", free, environment.RandomNodes(26, 40, 40, 3)); err != nil {
		return nil, err
	}
	officeCfg := environment.OfficeConfig{RoomsX: 4, RoomsY: 4, RoomSize: 10, DoorWidth: 1.5}
	office, err := environment.Office(officeCfg)
	if err != nil {
		return nil, err
	}
	office.PathLossExp = 3
	office.ShadowSigmaDB = 8
	office.Seed = 21
	w, h := environment.OfficeExtent(officeCfg)
	if err := add("office+shadowing", office, environment.RandomNodes(26, w, h, 4)); err != nil {
		return nil, err
	}
	fading := &environment.Scene{PathLossExp: 3, FastFading: true, Seed: 11}
	if err := add("fast-fading", fading, environment.RandomNodes(26, 40, 40, 5)); err != nil {
		return nil, err
	}
	return r, nil
}

func gridPoints(k int, spacing float64) []geom.Point {
	pts := make([]geom.Point, 0, k*k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			pts = append(pts, geom.Pt(float64(i)*spacing, float64(j)*spacing))
		}
	}
	return pts
}

// All runs every experiment in order.
func All() ([]*Report, error) {
	runs := []func() (*Report, error){
		E1TheoryTransfer, E2MetricityGeometric, E3FadingBound, E4Star,
		E5Algorithm1, E6Theorem3, E7Theorem6, E8ZetaPhiGap, E9Welzl,
		E10Strengthening, E11Separation, E12Amicability, E13Broadcast,
		E14LinkQuality,
	}
	out := make([]*Report, 0, len(runs))
	for _, run := range runs {
		rep, err := run()
		if err != nil {
			return nil, fmt.Errorf("experiment %d: %w", len(out)+1, err)
		}
		out = append(out, rep)
	}
	return out, nil
}
