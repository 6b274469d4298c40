// Command decaybench runs the paper-reproduction experiment suite (E1–E14)
// and the design ablations (A1–A4), printing each experiment's measured
// series, and benchmarks the batched hot paths against their per-pair
// baselines, emitting machine-readable JSON so the perf trajectory is
// tracked across PRs.
//
// Usage:
//
//	decaybench [-only E5] [-skip-ablations]
//	decaybench -bench [-benchjson BENCH_decaybench.json] [-benchn 256]
//	          [-benchlarge] [-serve] [-alloccheck bench_thresholds.json]
//	decaybench -remote host:9471,host:9472 [-remote-n 96] [-remote-iters 8]
//
// With -remote the binary becomes the coordinator half of the
// cross-process fault-tolerance smoke: it syncs the listed
// decaynet-worker daemons, fans repeated ζ scans out over TCP, checks
// each merged result bit-for-bit against a local sharded scan, and
// reports the pool's recovery counters — CI kills one worker mid-run and
// expects the scan to complete correctly anyway.
//
// With -serve the benchmark also boots the decaynetd session server on a
// loopback listener and drives it over real HTTP: "serve/session" records
// sessions/sec (engine build + registration per wire create) and
// "serve/mutate-read" the mutation→read path (POST a decay edit, GET the
// repaired ζ), reporting mean and p99 latency.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"decaynet"
	"decaynet/internal/buildinfo"
	"decaynet/internal/capacity"
	"decaynet/internal/core"
	"decaynet/internal/experiments"
	"decaynet/internal/rng"
	"decaynet/internal/scenario"
	"decaynet/internal/schedule"
	"decaynet/internal/shard"
	"decaynet/internal/sinr"
	"decaynet/internal/tier"
	"decaynet/internal/trace"
)

func main() {
	var (
		only          = flag.String("only", "", "run only the experiment with this id (e.g. E5 or A2)")
		skipAblations = flag.Bool("skip-ablations", false, "skip the A1-A4 ablations")
		bench         = flag.Bool("bench", false, "run the batched-vs-per-pair micro benchmarks instead of the experiments")
		benchJSON     = flag.String("benchjson", "BENCH_decaybench.json", "output path for benchmark JSON (with -bench)")
		benchN        = flag.Int("benchn", 256, "matrix size for the benchmarks")
		benchLarge    = flag.Bool("benchlarge", false, "also run the large-n suite (exact tiled zeta at n=512/1024, sampled estimators at n=4096)")
		allocCheck    = flag.String("alloccheck", "", "JSON file of per-op ceilings (allocs/op, ns/op, p99 ns/op); exit non-zero when a measured op regresses above one")
		serve         = flag.Bool("serve", false, "with -bench: also drive a loopback decaynetd and record serve/session and serve/mutate-read rows")
		remoteAddrs   = flag.String("remote", "", "comma-separated decaynet-worker addresses: run the cross-process fault-tolerance smoke driver instead of the experiments")
		remoteN       = flag.Int("remote-n", 96, "matrix size for the -remote driver")
		remoteIters   = flag.Int("remote-iters", 8, "scan iterations for the -remote driver")
		remotePause   = flag.Duration("remote-pause", 500*time.Millisecond, "pause between -remote scan iterations (the kill window of the SIGKILL smoke)")
		version       = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Fprint(os.Stdout, "decaybench")
		return
	}
	var err error
	if *remoteAddrs != "" {
		err = runRemote(*remoteAddrs, *remoteN, *remoteIters, *remotePause)
	} else if *bench {
		err = runBench(*benchJSON, *benchN, *benchLarge, *serve, *allocCheck)
	} else {
		err = run(*only, *skipAblations)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "decaybench:", err)
		os.Exit(1)
	}
}

func run(only string, skipAblations bool) error {
	reports, err := experiments.All()
	if err != nil {
		return err
	}
	if !skipAblations {
		abl, err := experiments.Ablations()
		if err != nil {
			return err
		}
		reports = append(reports, abl...)
	}
	printed := 0
	for _, r := range reports {
		if only != "" && !strings.EqualFold(r.ID, only) {
			continue
		}
		fmt.Println(r)
		printed++
	}
	if only != "" && printed == 0 {
		return fmt.Errorf("no experiment with id %q", only)
	}
	return nil
}

// benchResult is one benchmark row of the JSON output.
type benchResult struct {
	// Op names the operation, e.g. "zeta/batched".
	Op string `json:"op"`
	// N is the problem size (nodes for zeta, links for affectance).
	N int `json:"n"`
	// Iters is the number of timed iterations testing.Benchmark chose.
	Iters       int   `json:"iters"`
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// P99NsPerOp is the 99th-percentile latency for ops measured as a
	// latency distribution rather than a testing.Benchmark mean (the
	// serve/* rows); 0 elsewhere.
	P99NsPerOp int64 `json:"p99_ns_per_op,omitempty"`
}

// sampledBenchBudget is the triplet budget of the large-n sampled
// estimator ops: enough draws to pin the heavy tail of a 4096-node space
// while staying in single-digit seconds.
const sampledBenchBudget = 1_000_000

// ingestBenchNodes sizes the trace-ingestion op: a 1024-node synthetic
// campaign whose 90% drop rate leaves ~10⁵ readings.
const ingestBenchNodes = 1024

// runBench benchmarks the tiled ζ/ϕ and dense-affectance paths against the
// per-pair baselines plus the allocation-lean scheduling ops on an n-node
// random matrix space, optionally adds the large-n suite, and writes the
// rows as JSON. With a non-empty allocCheck path it then gates the
// measured allocs/op against the checked-in ceilings.
func runBench(outPath string, n int, large, serve bool, allocCheck string) error {
	inst, err := scenario.Build("random", scenario.Config{Nodes: n, Seed: 7})
	if err != nil {
		return err
	}
	space := inst.Space
	// Supply the space's real metricity so the Algorithm 1 benchmark runs
	// with the separation threshold a production session would use.
	zeta := core.Zeta(space)
	sys, err := inst.System(sinr.WithZeta(zeta), sinr.WithNoise(0.01))
	if err != nil {
		return err
	}
	p := sinr.UniformPower(sys, 1)
	nLinks := sys.Len()

	var results []benchResult
	record := func(op string, size int, fn func()) {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
		results = append(results, benchResult{
			Op:          op,
			N:           size,
			Iters:       r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		fmt.Printf("%-24s n=%-5d %12d ns/op %8d allocs/op %10d B/op\n",
			op, size, r.NsPerOp(), r.AllocsPerOp(), r.AllocedBytesPerOp())
	}

	record("zeta/per-pair", n, func() { core.ZetaPerPair(space, 1e-12) })
	record("zeta/batched", n, func() { core.Zeta(space) })
	record("varphi/batched", n, func() { core.Varphi(space) })
	record("affectance/per-pair", nLinks, func() { buildAffectancePerPair(sys, p) })
	record("affectance/batched", nLinks, func() { sinr.ComputeAffectances(sys, p) })
	all := capacity.AllLinks(sys)
	sys.Affectances(p) // warm the LRU: the scheduling ops measure the steady state
	record("algorithm1/cached", nLinks, func() { capacity.Algorithm1(sys, p, all) })
	record("schedule/bycapacity", nLinks, func() {
		if _, err := schedule.ByCapacity(sys, p, all, capacity.Algorithm1); err != nil {
			panic(err)
		}
	})
	record("schedule/firstfit", nLinks, func() {
		if _, err := schedule.FirstFit(sys, p, all); err != nil {
			panic(err)
		}
	})

	// Campaign ingestion: parse + clean a ~10⁵-reading synthetic campaign
	// (n=1024, 90% of readings dropped so geometry-backed imputation does
	// real work). The op covers the whole measured-trace hot path: CSV
	// parse, per-pair aggregation, asymmetry audit, path-loss fit,
	// imputation and Def 2.1 validation.
	synth, err := trace.Synthesize(trace.SynthConfig{N: ingestBenchNodes, Repeats: 1, DropRate: 0.9, Seed: 7})
	if err != nil {
		return err
	}
	var campBuf bytes.Buffer
	if err := trace.WriteCSV(&campBuf, synth.Campaign); err != nil {
		return err
	}
	campBytes := campBuf.Bytes()
	fmt.Printf("%-24s n=%-5d %12d readings\n", "trace/ingest (setup)", ingestBenchNodes, len(synth.Campaign.Readings))
	record("trace/ingest", ingestBenchNodes, func() {
		camp, err := trace.Read(bytes.NewReader(campBytes), trace.CSV)
		if err != nil {
			panic(err)
		}
		if _, _, err := trace.Clean(camp, trace.Options{Points: synth.Points}); err != nil {
			panic(err)
		}
	})

	// Sharded campaign ingestion: the same parse + clean hot path through
	// trace.CleanSharded's per-tx-row runtime (K = 8 row-range shards).
	record("shard/ingest", ingestBenchNodes, func() {
		camp, err := trace.Read(bytes.NewReader(campBytes), trace.CSV)
		if err != nil {
			panic(err)
		}
		if _, _, err := trace.CleanSharded(context.Background(), camp, trace.Options{Points: synth.Points}, shardBenchK); err != nil {
			panic(err)
		}
	})

	// Sharded ζ scan: the row-range coordinator's merged exact scan over a
	// warm replica, across shard counts. K is the scan's parallelism (each
	// in-process worker is one goroutine), so the K-scaling of these rows
	// is the sharding runtime's speedup curve on a multicore runner; the
	// shard/zeta vs shard/zeta-k1 gap is the acceptance figure.
	if err := benchShardZeta(record, space, n); err != nil {
		return err
	}

	// Remote sharded ζ scan: the same merged scan routed through the TCP
	// transport (K=2 loopback workers with synced replicas). Against the
	// in-process shard rows, the gap is the wire tax.
	if err := benchRemoteZeta(record, space, n); err != nil {
		return err
	}

	// Dynamic-session update path: a warm mutation-tracking engine absorbs
	// a k-dirty-row batch and re-serves ζ, the affectance matrix and a
	// capacity call via incremental repair; the rebuild baseline pays a
	// from-scratch engine on the same mutated instance. The ≥10× gap is
	// the PR 4 acceptance bar (measured at n=1024 under -benchlarge).
	if err := benchEngineUpdate(record, n); err != nil {
		return err
	}

	// Traffic-simulation hot paths: one event-loop step (heap pop +
	// dispatch, amortized over a whole run) and one complete fixed-spec
	// run (two classes, capacity policy, static topology so every
	// iteration replays the identical event sequence).
	if err := benchSim(record, n); err != nil {
		return err
	}

	// Tiered-storage rows: tier/zeta times an exact ζ scan answered from
	// the tiered row store (near-field CSR + float32 tail) at the bench
	// size, and tier/bytes records — as bytes_per_op — the bytes a
	// model-tail tiered space holds for an n=4096 "urban" session, the
	// memory-wall acceptance figure (the dense float64 matrix it replaces
	// is 128 MiB at that size).
	tierRow, err := benchTier(record, space, n)
	if err != nil {
		return err
	}
	results = append(results, tierRow)

	if large {
		for _, ln := range []int{512, 1024} {
			li, err := scenario.Build("random", scenario.Config{Nodes: ln, Seed: 7})
			if err != nil {
				return err
			}
			record("zeta/batched", ln, func() { core.Zeta(li.Space) })
			if ln == 1024 {
				// The acceptance size of the sharding runtime: shard/zeta
				// K-scaling at n = 1024.
				if err := benchShardZeta(record, li.Space, ln); err != nil {
					return err
				}
			}
		}
		huge, err := scenario.Build("random", scenario.Config{Nodes: 4096, Seed: 7})
		if err != nil {
			return err
		}
		record("zeta/sampled-batch", 4096, func() {
			core.ZetaSampledBatch(huge.Space, sampledBenchBudget, rng.New(11))
		})
		record("varphi/sampled-batch", 4096, func() {
			core.VarphiSampledBatch(huge.Space, sampledBenchBudget, rng.New(11))
		})
		// Surface the concentration summary next to the timed ops: the
		// point estimate, its strata, and the Hoeffding half-width over
		// stratum maxima (how settled the sampled value is at this budget).
		ze := core.ZetaSampledEstimate(huge.Space, sampledBenchBudget, rng.New(11))
		fmt.Printf("zeta/sampled-batch     n=4096 estimate %.4f (%d strata, E[stratum max] %.4f ±%.4f @95%%)\n",
			ze.Value, ze.Strata, ze.MeanStratumMax, ze.HalfWidth95)
		ve := core.VarphiSampledEstimate(huge.Space, sampledBenchBudget, rng.New(11))
		fmt.Printf("varphi/sampled-batch   n=4096 estimate %.4f (%d strata, E[stratum max] %.4f ±%.4f @95%%)\n",
			ve.Value, ve.Strata, ve.MeanStratumMax, ve.HalfWidth95)
		if err := benchEngineUpdate(record, 1024); err != nil {
			return err
		}
	}

	speedup := func(base, batched string) {
		var b0, b1 int64
		baseN := -1
		for _, r := range results {
			if r.Op == base {
				b0, baseN = r.NsPerOp, r.N
			}
		}
		for _, r := range results {
			// Match the baseline's size: the -benchlarge suite records the
			// batched op at additional sizes that have no baseline row.
			if r.Op == batched && r.N == baseN {
				b1 = r.NsPerOp
			}
		}
		if b0 > 0 && b1 > 0 {
			fmt.Printf("%s vs %s: %.1fx\n", batched, base, float64(b0)/float64(b1))
		}
	}
	speedup("zeta/per-pair", "zeta/batched")
	speedup("affectance/per-pair", "affectance/batched")
	// Sharding K-scaling: the single-shard baseline against the full
	// worker fleet at the largest benchmarked size.
	shardSpeedup := func() {
		var k1, kN int64
		size := 0
		for _, r := range results {
			if r.Op == "shard/zeta-k1" && r.N >= size {
				k1, size = r.NsPerOp, r.N
			}
		}
		for _, r := range results {
			if r.Op == "shard/zeta" && r.N == size {
				kN = r.NsPerOp
			}
		}
		if k1 > 0 && kN > 0 {
			fmt.Printf("shard/zeta (K=%d) vs shard/zeta-k1 (n=%d): %.1fx\n", shardBenchK, size, float64(k1)/float64(kN))
		}
	}
	shardSpeedup()
	// The update path is measured at every benchmarked size; report the
	// incremental-vs-rebuild gap at the largest one.
	updSpeedup := func() {
		var upd, reb int64
		size := 0
		for _, r := range results {
			if r.Op == "engine/update" && r.N >= size {
				upd, size = r.NsPerOp, r.N
			}
		}
		for _, r := range results {
			if r.Op == "engine/rebuild" && r.N == size {
				reb = r.NsPerOp
			}
		}
		if upd > 0 && reb > 0 {
			fmt.Printf("engine/update vs engine/rebuild (n=%d): %.1fx\n", size, float64(reb)/float64(upd))
		}
	}
	updSpeedup()

	if serve {
		rows, err := benchServe(n)
		if err != nil {
			return err
		}
		results = append(results, rows...)
	}

	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		return err
	}
	fmt.Println("wrote", outPath)
	if allocCheck != "" {
		return checkAllocs(allocCheck, results)
	}
	return nil
}

// opThreshold is one op's regression ceilings. The checked-in file admits
// two forms per op: a bare number (an allocs/op ceiling, the historical
// format every pre-serve row uses) or an object naming any of
// allocs_per_op, ns_per_op, p99_ns_per_op and bytes_per_op — the serve/*
// rows gate latency, not allocations, since their cost is the HTTP round
// trip, and tier/bytes gates the storage a tiered space holds.
type opThreshold struct {
	AllocsPerOp *int64 `json:"allocs_per_op"`
	NsPerOp     *int64 `json:"ns_per_op"`
	P99NsPerOp  *int64 `json:"p99_ns_per_op"`
	BytesPerOp  *int64 `json:"bytes_per_op"`
}

// checkAllocs gates measured rows against the checked-in per-op ceilings
// (the CI bench-smoke regression guard). Every op named in the ceiling
// file must have been measured — a silently skipped op would hollow out
// the gate.
func checkAllocs(path string, results []benchResult) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	limits := make(map[string]opThreshold, len(raw))
	for op, msg := range raw {
		var n int64
		if err := json.Unmarshal(msg, &n); err == nil {
			limits[op] = opThreshold{AllocsPerOp: &n}
			continue
		}
		var t opThreshold
		if err := json.Unmarshal(msg, &t); err != nil {
			return fmt.Errorf("parsing %s: op %q: %w", path, op, err)
		}
		limits[op] = t
	}
	var failures []string
	for op, limit := range limits {
		seen := false
		for _, r := range results {
			if r.Op != op {
				continue
			}
			seen = true
			if limit.AllocsPerOp != nil && r.AllocsPerOp > *limit.AllocsPerOp {
				failures = append(failures, fmt.Sprintf("%s at n=%d allocates %d/op, ceiling %d", op, r.N, r.AllocsPerOp, *limit.AllocsPerOp))
			}
			if limit.NsPerOp != nil && r.NsPerOp > *limit.NsPerOp {
				failures = append(failures, fmt.Sprintf("%s at n=%d takes %d ns/op, ceiling %d", op, r.N, r.NsPerOp, *limit.NsPerOp))
			}
			if limit.P99NsPerOp != nil && r.P99NsPerOp > *limit.P99NsPerOp {
				failures = append(failures, fmt.Sprintf("%s at n=%d has p99 %d ns, ceiling %d", op, r.N, r.P99NsPerOp, *limit.P99NsPerOp))
			}
			if limit.BytesPerOp != nil && r.BytesPerOp > *limit.BytesPerOp {
				failures = append(failures, fmt.Sprintf("%s at n=%d holds %d B/op, ceiling %d", op, r.N, r.BytesPerOp, *limit.BytesPerOp))
			}
		}
		if !seen {
			failures = append(failures, fmt.Sprintf("%s has a ceiling but was not measured", op))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("threshold regression:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Printf("threshold check passed (%d ceilings)\n", len(limits))
	return nil
}

// shardBenchK is the worker-fleet size of the sharded ops: the K of the
// recorded shard/zeta and shard/ingest rows (shard/zeta-k1 and -k2/-k4
// rows trace the scaling curve below it).
const shardBenchK = 8

// tierBytesN is the fixed acceptance size of the tier/bytes row: 4096
// nodes, where a dense float64 matrix pins 128 MiB and the model-tail
// tiered store is gated an order of magnitude under it.
const tierBytesN = 4096

// benchTier records the tiered-storage rows. tier/zeta is a timed op: an
// exact ζ scan over a float32-tail tiered space at the bench size, paying
// row reconstruction from the near-field CSR and the compressed tail on
// every read. tier/bytes is a held-storage measurement, not a timed one —
// the returned row reports Accounting().TotalBytes() of an n=4096 "urban"
// model-tail space as bytes_per_op (its ns_per_op is the one-time build
// cost), so the bench-threshold gate can hold the memory-wall line.
func benchTier(record func(op string, size int, fn func()), space core.Space, n int) (benchResult, error) {
	k := 32
	if k > n-1 {
		k = n - 1
	}
	ts, err := tier.Build(space, tier.Options{Config: tier.Config{K: k, Tail: tier.TailFloat32}})
	if err != nil {
		return benchResult{}, err
	}
	record("tier/zeta", n, func() { core.ZetaTol(ts, 1e-12) })

	urban, err := scenario.Build("urban", scenario.Config{Nodes: tierBytesN, Links: 64, Seed: 7})
	if err != nil {
		return benchResult{}, err
	}
	// tier/build times the spatial-index build path (the urban space is
	// decay-bounded, so candidate generation runs over the uniform grid,
	// not the O(n²) row sweep) — the op the threshold file gates so the
	// n=10⁵ city-scale build keeps its headroom.
	record("tier/build", tierBytesN, func() {
		if _, err := tier.Build(urban.Space, tier.Options{
			Config: tier.Config{K: 32, Tail: tier.TailModel},
			Points: urban.Points,
		}); err != nil {
			panic(err)
		}
	})
	start := time.Now()
	tb, err := tier.Build(urban.Space, tier.Options{
		Config: tier.Config{K: 32, Tail: tier.TailModel},
		Points: urban.Points,
	})
	if err != nil {
		return benchResult{}, err
	}
	acct := tb.Accounting()
	if acct.IndexedRows != tierBytesN {
		return benchResult{}, fmt.Errorf("tier/build did not take the indexed path: %d/%d rows", acct.IndexedRows, tierBytesN)
	}
	row := benchResult{
		Op:         "tier/bytes",
		N:          tierBytesN,
		Iters:      1,
		NsPerOp:    time.Since(start).Nanoseconds(),
		BytesPerOp: acct.TotalBytes(),
	}
	fmt.Printf("%-24s n=%-5d %12d ns/op %10d B held (dense %d)\n",
		row.Op, row.N, row.NsPerOp, row.BytesPerOp, acct.DenseBytes)
	return row, nil
}

// benchShardZeta measures the sharded exact ζ scan at n nodes for
// K ∈ {1, 2, 4, 8}: each op fans the row ranges out to K single-goroutine
// workers over a warm shared replica (the state build is paid once outside
// the timed loop, as a session's replica is), so the rows isolate the
// scan itself — the part that scales with K.
func benchShardZeta(record func(op string, size int, fn func()), space core.Space, n int) error {
	for _, k := range []int{1, 2, 4, shardBenchK} {
		c, err := localShards(core.Dense(space), k)
		if err != nil {
			return err
		}
		if _, err := c.Max(context.Background(), shard.Zeta); err != nil { // warm the replica
			return err
		}
		op := "shard/zeta"
		if k != shardBenchK {
			op = fmt.Sprintf("shard/zeta-k%d", k)
		}
		record(op, n, func() {
			if _, err := c.Max(context.Background(), shard.Zeta); err != nil {
				panic(err)
			}
		})
	}
	return nil
}

// localShards builds a coordinator over m with k in-process shard
// workers sharing one replica, as decaynet.WithShards(k) does.
func localShards(m *core.Matrix, k int) (*shard.Coordinator, error) {
	rep, err := shard.NewReplica(context.Background(), m, 1e-12, 0, 0)
	if err != nil {
		return nil, err
	}
	workers := make([]shard.Worker, k)
	for i := range workers {
		workers[i] = shard.NewLocalWorker(rep)
	}
	return shard.New(rep, workers)
}

// updateDirtyRows is the dirty-row batch size of the update-path ops: the
// k = 16 of the PR 4 acceptance criterion, shrunk on tiny smoke sizes.
const updateDirtyRows = 16

// benchEngineUpdate measures the dynamic-session update path at size n:
// "engine/update" applies a k-row decay batch to a warm mutation-tracking
// engine and re-reads ζ, the affectance matrix and a capacity pick (all
// incrementally repaired); "engine/rebuild" serves the same reads through
// a from-scratch engine on the mutated instance.
func benchEngineUpdate(record func(op string, size int, fn func()), n int) error {
	k := updateDirtyRows
	if k > n/4 {
		k = n / 4
	}
	eng, err := decaynet.NewEngine(
		decaynet.UsingScenario("random", decaynet.ScenarioConfig{Nodes: n, Seed: 7}),
		decaynet.Noise(0.01),
		decaynet.WithMutationTracking(),
	)
	if err != nil {
		return err
	}
	p := eng.UniformPower(1)
	// Warm the session: ζ (building the incremental tracker), the
	// affectance cache, and the quasi-metric's dense matrix (via the
	// capacity call) — the steady state a long-lived session serves from.
	eng.Zeta()
	eng.Affectances(p)
	eng.Capacity(p, nil)

	// Two alternating row batches, so every iteration applies a genuine
	// change to the same k rows.
	src := rng.New(23)
	batches := [2]map[int][]float64{}
	for b := range batches {
		rows := make(map[int][]float64, k)
		for i := 0; i < k; i++ {
			r := (i * n) / k
			row := make([]float64, n)
			for j := range row {
				if j != r {
					row[j] = src.Range(0.5, 50)
				}
			}
			rows[r] = row
		}
		batches[b] = rows
	}
	flip := 0
	record("engine/update", n, func() {
		flip ^= 1
		if err := eng.SetDecayRows(batches[flip]); err != nil {
			panic(err)
		}
		eng.Zeta()
		eng.Affectances(p)
		eng.Capacity(p, nil)
	})
	record("engine/rebuild", n, func() {
		fresh, err := decaynet.NewEngine(
			decaynet.UsingSpace(decaynet.Materialize(eng.Space())),
			decaynet.UsingLinks(eng.Links()...),
			decaynet.Noise(0.01),
		)
		if err != nil {
			panic(err)
		}
		fresh.Zeta()
		fresh.Affectances(p)
		fresh.Capacity(p, nil)
	})
	return nil
}

// benchSim measures the discrete-event traffic simulator on a churn-base
// instance with n nodes: "sim/step" is one event-loop step (arrival,
// round boundary or completion — the per-event cost a long horizon
// multiplies), "sim/run" a complete fixed-spec run including simulator
// construction and the metrics fold. The spec carries no churn block, so
// the engine never mutates and every iteration replays the identical
// deterministic event sequence.
func benchSim(record func(op string, size int, fn func()), n int) error {
	links := n / 2
	if links < 4 {
		links = 4
	}
	eng, err := decaynet.NewEngine(
		decaynet.UsingScenario("churn", decaynet.ScenarioConfig{Links: links, Seed: 7}),
		decaynet.Noise(0.0005),
	)
	if err != nil {
		return err
	}
	spec := &decaynet.SimSpec{
		Horizon:   0.25,
		RoundTime: 0.005,
		Seed:      42,
		Policy:    "capacity",
		Classes: []decaynet.SimClassSpec{
			{Name: "web", Arrival: decaynet.SimArrivalSpec{Dist: "poisson", Rate: 400}, Deadline: 0.1},
			{Name: "bulk", Arrival: decaynet.SimArrivalSpec{Dist: "weibull", Shape: 0.8, Scale: 0.01},
				Demand: decaynet.SimDemandSpec{Dist: "uniform", Min: 1, Max: 3}},
		},
	}
	s, err := decaynet.NewTrafficSim(eng, decaynet.SimConfig{Spec: spec})
	if err != nil {
		return err
	}
	record("sim/step", n, func() {
		done, err := s.Step()
		if err != nil {
			panic(err)
		}
		if done {
			if s, err = decaynet.NewTrafficSim(eng, decaynet.SimConfig{Spec: spec}); err != nil {
				panic(err)
			}
		}
	})
	record("sim/run", n, func() {
		run, err := decaynet.NewTrafficSim(eng, decaynet.SimConfig{Spec: spec})
		if err != nil {
			panic(err)
		}
		if _, err := run.Run(context.Background()); err != nil {
			panic(err)
		}
	})
	return nil
}

// serveCreateSessions and serveMutateReads size the serve ops: enough wire
// round trips to settle the distribution while keeping the smoke run in
// single-digit seconds.
const (
	serveCreateSessions = 48
	serveMutateReads    = 200
)

// benchServe boots the decaynetd session server on a loopback listener
// and measures the serving hot paths over real HTTP: session creation
// throughput (wire create → engine build → registration) and the
// mutation→read path (POST one decay edit, GET the incrementally repaired
// ζ), whose p99 is the ROADMAP's serving acceptance figure.
func benchServe(n int) ([]benchResult, error) {
	srv, err := decaynet.NewServer(decaynet.ServeConfig{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 60 * time.Second}

	do := func(method, path string, body string) (map[string]any, error) {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode/100 != 2 {
			return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
		}
		out := map[string]any{}
		if len(data) > 0 {
			if err := json.Unmarshal(data, &out); err != nil {
				return nil, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
			}
		}
		return out, nil
	}

	var results []benchResult

	// Session throughput: each create is a full wire round trip — decode,
	// scenario build, engine construction, quota registration.
	createBody := func(seed int) string {
		return fmt.Sprintf(`{"scenario":"random","config":{"nodes":%d,"seed":%d},"noise":0.01,"tracking":true}`, n, seed)
	}
	var firstID string
	t0 := time.Now()
	for i := 0; i < serveCreateSessions; i++ {
		info, err := do("POST", "/v1/sessions", createBody(i+1))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			firstID, _ = info["id"].(string)
		}
	}
	elapsed := time.Since(t0)
	perOp := elapsed.Nanoseconds() / serveCreateSessions
	results = append(results, benchResult{Op: "serve/session", N: n, Iters: serveCreateSessions, NsPerOp: perOp})
	fmt.Printf("%-24s n=%-5d %12d ns/op %10.1f sessions/sec\n",
		"serve/session", n, perOp, float64(serveCreateSessions)/elapsed.Seconds())

	// Mutation→read: a warm tracking session absorbs one decay edit and
	// re-serves the incrementally repaired ζ, all over the wire.
	if firstID == "" {
		return nil, fmt.Errorf("serve/session: create response carried no id")
	}
	sessPath := "/v1/sessions/" + firstID
	if _, err := do("GET", sessPath+"/zeta", ""); err != nil { // warm: tracker build
		return nil, err
	}
	lat := make([]time.Duration, serveMutateReads)
	for i := range lat {
		mut := fmt.Sprintf(`{"set_decays":[{"i":0,"j":1,"f":%g}]}`, 1.5+float64(i%7))
		t := time.Now()
		if _, err := do("POST", sessPath+"/mutations", mut); err != nil {
			return nil, err
		}
		if _, err := do("GET", sessPath+"/zeta", ""); err != nil {
			return nil, err
		}
		lat[i] = time.Since(t)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	mean := sum.Nanoseconds() / int64(len(lat))
	p99 := lat[(len(lat)*99+99)/100-1].Nanoseconds()
	results = append(results, benchResult{Op: "serve/mutate-read", N: n, Iters: serveMutateReads, NsPerOp: mean, P99NsPerOp: p99})
	fmt.Printf("%-24s n=%-5d %12d ns/op %12d p99 ns\n", "serve/mutate-read", n, mean, p99)
	return results, nil
}

// buildAffectancePerPair is the pre-batching baseline: one AffectanceRaw
// call (two virtual F calls plus a NoiseFactor recomputation) per matrix
// element.
func buildAffectancePerPair(s *sinr.System, p sinr.Power) []float64 {
	n := s.Len()
	a := make([]float64, n*n)
	for w := 0; w < n; w++ {
		for v := 0; v < n; v++ {
			a[w*n+v] = sinr.AffectanceRaw(s, p, w, v)
		}
	}
	return a
}
