package scenario

import (
	"fmt"
	"math"
	"testing"

	"decaynet/internal/core"
)

// registryCase is one built instance of the registry wall: a scenario
// name and a config sized to give roughly the requested node count.
type registryCase struct {
	label string
	name  string
	cfg   Config
}

// sampleCampaign is the measured campaign the "trace" scenario ingests in
// tests.
const sampleCampaign = "../trace/testdata/sample_campaign.csv"

// registryConfig returns a config for scenario name with about n nodes.
// Scenarios with a fixed size (gap, trace) ignore n. It fails the test for
// a scenario it does not know, so a newly registered scenario must be
// added here before the registry wall passes.
func registryConfig(t testing.TB, name string, n int, seed uint64) Config {
	t.Helper()
	cfg := Config{Seed: seed}
	switch name {
	case "office", "warehouse", "corridor", "plane", "plane-clustered", "churn":
		cfg.Links = n / 2
	case "urban":
		cfg.Links, cfg.Nodes = n/4, n // half the nodes are bystanders
		cfg.Side = 400
	case "theorem3", "theorem6":
		cfg.Nodes = n / 2
	case "star", "welzl":
		cfg.Nodes = n - 2
	case "uniform", "random":
		cfg.Nodes = n
	case "gap":
	case "trace":
		cfg.Path = sampleCampaign
	default:
		t.Fatalf("registry wall: no config for scenario %q", name)
	}
	return cfg
}

// registryCases covers every registered scenario at the given sizes and
// seeds (fixed-size scenarios once per seed).
func registryCases(t testing.TB, sizes []int, seeds []uint64) []registryCase {
	t.Helper()
	var out []registryCase
	for _, name := range Names() {
		for _, seed := range seeds {
			for i, n := range sizes {
				if (name == "gap" || name == "trace") && i > 0 {
					break
				}
				out = append(out, registryCase{
					label: fmt.Sprintf("%s/n%d/seed%d", name, n, seed),
					name:  name,
					cfg:   registryConfig(t, name, n, seed),
				})
			}
		}
	}
	return out
}

// rowsOf returns every row of sp through the batch contract.
func rowsOf(sp core.Space) [][]float64 {
	rs := core.Rows(sp)
	out := make([][]float64, rs.N())
	for i := range out {
		out[i] = make([]float64, rs.N())
		rs.Row(i, out[i])
	}
	return out
}

// TestRegistrySeedDeterminism: two Builds from one Config give the same
// instance bit for bit — decay rows, links, points and KnownZeta — so a
// seed names a scenario everywhere.
func TestRegistrySeedDeterminism(t *testing.T) {
	for _, tc := range registryCases(t, []int{12, 40}, []uint64{1, 7}) {
		a, err := Build(tc.name, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		b, err := Build(tc.name, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		ra, rb := rowsOf(a.Space), rowsOf(b.Space)
		if len(ra) != len(rb) {
			t.Fatalf("%s: %d vs %d nodes", tc.label, len(ra), len(rb))
		}
		for i := range ra {
			for j := range ra[i] {
				if math.Float64bits(ra[i][j]) != math.Float64bits(rb[i][j]) {
					t.Fatalf("%s: f(%d,%d) = %v vs %v", tc.label, i, j, ra[i][j], rb[i][j])
				}
			}
		}
		if fmt.Sprint(a.Links) != fmt.Sprint(b.Links) || fmt.Sprint(a.Points) != fmt.Sprint(b.Points) {
			t.Fatalf("%s: links or points differ between builds", tc.label)
		}
		if math.Float64bits(a.KnownZeta) != math.Float64bits(b.KnownZeta) {
			t.Fatalf("%s: KnownZeta %v vs %v", tc.label, a.KnownZeta, b.KnownZeta)
		}
	}
}

// TestRegistryDef21: every built space is a decay space in the sense of
// Def. 2.1 — positive finite decays off the diagonal, a zero diagonal —
// through both the row contract and single-entry F.
func TestRegistryDef21(t *testing.T) {
	for _, tc := range registryCases(t, []int{12, 40}, []uint64{1, 7}) {
		inst, err := Build(tc.name, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if err := core.Validate(inst.Space); err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		for i, row := range rowsOf(inst.Space) {
			for j, v := range row {
				f := inst.Space.F(i, j)
				if i == j {
					if v != 0 || f != 0 {
						t.Fatalf("%s: diagonal %d: Row %v, F %v", tc.label, i, v, f)
					}
					continue
				}
				if !(v > 0) || math.IsInf(v, 0) || !(f > 0) || math.IsInf(f, 0) {
					t.Fatalf("%s: f(%d,%d): Row %v, F %v", tc.label, i, j, v, f)
				}
			}
		}
	}
}

// TestRegistryKnownZeta checks every scenario's KnownZeta against the
// computed ζ. All of them are path-loss exponents α of f = d^α (plane,
// plane-clustered, churn, and urban without shadowing or corner loss).
// f^(1/α) is then the Euclidean metric, so the inequality of Def. 2.2
// holds at α on every point set and ζ ≤ α; the bound is tight only for
// collinear triplets with the relay between the endpoints. The check is
// therefore ζ ≤ α everywhere, and ζ = α where the construction puts nodes
// on a line: the shadowless urban city, whose nodes sit along streets.
func TestRegistryKnownZeta(t *testing.T) {
	cases := registryCases(t, []int{12, 40}, []uint64{1, 7})
	for _, seed := range []uint64{1, 7} {
		cfg := registryConfig(t, "urban", 64, seed)
		cfg.Params = map[string]float64{"sigma": 0, "corner": 0, "width": 0}
		cases = append(cases, registryCase{label: fmt.Sprintf("urban-los/seed%d", seed), name: "urban", cfg: cfg})
	}
	checked, tight := 0, 0
	for _, tc := range cases {
		inst, err := Build(tc.name, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if inst.KnownZeta == 0 {
			continue
		}
		alpha := inst.KnownZeta
		z := core.Zeta(inst.Space)
		if z > alpha*(1+1e-9) {
			t.Errorf("%s: computed ζ %v exceeds KnownZeta %v", tc.label, z, alpha)
		}
		if tc.cfg.Params != nil {
			tight++
			if z < alpha*(1-1e-6) {
				t.Errorf("%s: street-aligned city: ζ %v, want KnownZeta %v", tc.label, z, alpha)
			}
		}
		checked++
	}
	if checked < 8 || tight != 2 {
		t.Fatalf("checked %d KnownZeta instances (%d street-aligned), want ≥ 8 and 2", checked, tight)
	}
}
