package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"decaynet"
)

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []endToEndMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// smallUrbanConfig is a 16-link city dense enough that its links interfere.
var smallUrbanConfig = decaynet.ScenarioConfig{Links: 16, Seed: 3, Side: 200}

func smallUrban(t *testing.T) *decaynet.ScenarioInstance {
	t.Helper()
	inst, err := decaynet.BuildScenario("urban", smallUrbanConfig)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// encodeAll renders a mutation list as wire bodies, for comparison.
func encodeAll(t *testing.T, muts []decaynet.Mutation) [][]byte {
	t.Helper()
	out := make([][]byte, len(muts))
	for i, m := range muts {
		b, err := encodeMutation(m, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func TestOpListsAreSeeded(t *testing.T) {
	if !slices.Equal(sessionSeeds(7, 50, false), sessionSeeds(7, 50, false)) {
		t.Error("session seeds differ for one seed")
	}
	if slices.Equal(sessionSeeds(7, 50, false), sessionSeeds(8, 50, false)) {
		t.Error("session seeds equal across seeds")
	}
	for _, s := range sessionSeeds(7, 50, false) {
		if slices.Contains(sessionSeeds(7, 50, true), s) {
			t.Fatalf("warm-up seed %d is also a timed seed", s)
		}
	}

	inst := smallUrban(t)
	draw := func(seed uint64) [][]byte {
		return encodeAll(t, newMutGen(inst.Space, inst.Links).draw(newRand(seed, streamOps), 200))
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !slices.EqualFunc(a, b, bytes.Equal) {
		t.Error("mutation stream differs for one seed")
	}
	if slices.EqualFunc(a, c, bytes.Equal) {
		t.Error("mutation stream equal across seeds")
	}

	p1 := powerOps(newRand(7, streamOps), 20, 16, true)
	p2 := powerOps(newRand(7, streamOps), 20, 16, true)
	p3 := powerOps(newRand(8, streamOps), 20, 16, true)
	for i := range p1 {
		if p1[i].scale != p2[i].scale || !slices.Equal(p1[i].links, p2[i].links) {
			t.Fatal("power ops differ for one seed")
		}
		if len(p1[i].links) != 8 || !slices.IsSorted(p1[i].links) {
			t.Fatalf("op %d: links %v, want a sorted half", i, p1[i].links)
		}
	}
	if p1[0].scale == p3[0].scale {
		t.Error("power ops equal across seeds")
	}
}

// TestMutationStreamApplies checks every drawn batch is valid for the
// session it was drawn for, and that the generator's mix covers all three
// kinds of batch.
func TestMutationStreamApplies(t *testing.T) {
	inst := smallUrban(t)
	eng, err := decaynet.NewEngine(decaynet.UsingScenario("urban", smallUrbanConfig), decaynet.WithMutationTracking())
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for i, m := range newMutGen(inst.Space, inst.Links).draw(newRand(1, streamOps), 100) {
		switch {
		case len(m.SetDecays) == decaysPerOp:
			kinds["decays"]++
		case len(m.SetRows) == 1:
			kinds["row"]++
		case len(m.RemoveLinks) == 1 && len(m.AddLinks) == 1:
			kinds["links"]++
		default:
			t.Fatalf("batch %d has an unexpected shape: %+v", i, m)
		}
		if err := eng.Update(m); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if len(kinds) != 3 {
		t.Errorf("mix %v, want all three kinds", kinds)
	}
}

func TestChecksCountCorruptedOutputs(t *testing.T) {
	eng, err := decaynet.NewEngine(decaynet.UsingScenario("urban", smallUrbanConfig))
	if err != nil {
		t.Fatal(err)
	}
	p := eng.LinearPower(1)
	zeta, phi := eng.Zeta(), eng.Phi()
	set := eng.Capacity(p, nil)
	slots, err := eng.Schedule(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := eng.AllLinks()
	if eng.Feasible(p, all) {
		t.Fatal("test instance: all links feasible together, cannot build an infeasible slot")
	}

	rep := newReport()
	rep.op("valid analysis", checkAnalysis(eng, p, zeta, phi, set, slots))
	if rep.failed != 0 {
		t.Fatalf("valid analysis failed: %v", rep.failures)
	}
	corrupted := []struct {
		name string
		err  error
	}{
		{"NaN ζ", checkAnalysis(eng, p, math.NaN(), phi, set, slots)},
		{"ζ below 1", checkAnalysis(eng, p, 0.5, phi, set, slots)},
		{"negative φ", checkAnalysis(eng, p, zeta, -1, set, slots)},
		{"infeasible capacity set", checkAnalysis(eng, p, zeta, phi, all, slots)},
		{"empty capacity set", checkAnalysis(eng, p, zeta, phi, nil, slots)},
		{"infeasible slot", checkAnalysis(eng, p, zeta, phi, set, [][]int{all})},
		{"link missing from schedule", checkAnalysis(eng, p, zeta, phi, set, slots[1:])},
		{"skipped version", checkVersion(4, 6)},
		{"repeated version", checkVersion(4, 4)},
		{"non-2xx status", checkStatus("GET /x", 409)},
		{"twin ζ differs in the last bit", checkTwin("ζ", zeta, math.Nextafter(zeta, 10))},
		{"twin capacity differs", checkTwinSet("capacity", set, set[1:])},
	}
	for _, c := range corrupted {
		if c.err == nil {
			t.Errorf("%s: check passed", c.name)
		}
		rep.op(c.name, c.err)
	}
	if rep.attempted != len(corrupted)+1 || rep.failed != len(corrupted) {
		t.Errorf("attempted %d failed %d, want %d and %d", rep.attempted, rep.failed, len(corrupted)+1, len(corrupted))
	}
}

// TestServedWriteCountsSkippedVersion drives the churn write and read
// against a real loopback daemon: in-order batches pass, and a batch whose
// fence skips a version is refused and counted as a failed op.
func TestServedWriteCountsSkippedVersion(t *testing.T) {
	d, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.stop(); err != nil {
			t.Error(err)
		}
	}()
	body, err := json.Marshal(map[string]any{"scenario": "urban", "config": map[string]any{"links": 16, "seed": 3, "side": 200}, "tracking": true})
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := d.call("POST", "/v1/sessions", body, &info); err != nil {
		t.Fatal(err)
	}
	s := &churnSession{d: d, path: "/v1/sessions/" + info.ID}
	inst := smallUrban(t)
	muts := newMutGen(inst.Space, inst.Links).draw(newRand(1, streamOps), 6)
	rep := newReport()
	for i, m := range muts[:5] {
		b, err := encodeMutation(m, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		err = s.write(b, nil)
		if err == nil {
			_, _, err = s.read(nil, rep)
		}
		rep.op("in-order batch", err)
	}
	if rep.failed != 0 {
		t.Fatalf("in-order batches failed: %v", rep.failures)
	}
	skipped, err := encodeMutation(muts[5], 6) // the session is at version 5
	if err != nil {
		t.Fatal(err)
	}
	rep.op("skipped version", s.write(skipped, nil))
	if rep.failed != 1 {
		t.Errorf("skipped version not counted: failed = %d", rep.failed)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)

	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if lookupWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v, benchmark declares %+v", b.EndToEnd, endToEnd)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, benchmark declares %d", len(b.PerLayer), len(perLayer))
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	for i, m := range perLayer {
		j := b.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, benchmark declares %+v", i, j, m)
		}
		if lookupWorkload(m.Workload) == nil {
			t.Errorf("%s: unknown workload %q", m.Name, m.Workload)
		}
		for _, mv := range m.Moves {
			if !e2e[mv] {
				t.Errorf("%s: moves unknown metric %q", m.Name, mv)
			}
		}
	}

	// An untraced run prints exactly the end-to-end metrics.
	rep, err := runWorkload(config{workload: "analyze", seed: 1, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("untraced analyze run failed: %v", rep.failures)
	}
	var printed []string
	for _, m := range rep.metrics {
		printed = append(printed, m.Name)
	}
	var want []string
	for _, m := range endToEnd {
		want = append(want, m.Name)
	}
	if !slices.Equal(printed, want) {
		t.Errorf("untraced run printed %v, want %v", printed, want)
	}
}

// TestTracedRun runs the whole traced pass: every per-layer metric is
// printed, the twins agree bit for bit, and the layer spans cover each op.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced pass of all four workloads takes about 40 s")
	}
	rep, err := runTraced(config{workload: "analyze", seed: 2, seconds: 1, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("traced run failed %d of %d ops: %v", rep.failed, rep.attempted, rep.failures)
	}
	var printed []string
	for _, m := range rep.metrics {
		printed = append(printed, m.Name)
		if strings.HasSuffix(m.Name, "_coverage_pct") && m.Value < minCoveragePct {
			t.Errorf("%s = %.1f%%, want at least 90%%", m.Name, m.Value)
		}
	}
	var want []string
	for _, m := range perLayer {
		want = append(want, m.Name)
	}
	if !slices.Equal(printed, want) {
		t.Errorf("traced run printed %v,\nwant %v", printed, want)
	}
}
