package scenario

import (
	"context"
	"fmt"
	"math"
	"net"
	"testing"

	"decaynet/internal/core"
	"decaynet/internal/rng"
	"decaynet/internal/shard"
	"decaynet/internal/shard/remote"
)

// differentialSpace is one row of the ζ and ϕ differential tables.
type differentialSpace struct {
	label string
	space core.Space
}

// differentialSpaces returns every registered scenario at three sizes
// (n = 70 crosses the tiled-kernel threshold) and two seeds, the paper's
// hardness constructions at larger sizes, and random matrices: asymmetric
// ones, a symmetrized one, one spanning 10^±250 (G's exponents reach the
// hundreds), and one of decays near 10^301, past the range in which the
// exact scan's linear screen stays on.
func differentialSpaces(t *testing.T) []differentialSpace {
	t.Helper()
	var out []differentialSpace
	add := func(label, name string, cfg Config) {
		inst, err := Build(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		out = append(out, differentialSpace{label, inst.Space})
	}
	for _, tc := range registryCases(t, []int{12, 40, 70}, []uint64{1, 7}) {
		add(tc.label, tc.name, tc.cfg)
	}
	for _, nodes := range []int{24, 48} {
		for _, name := range []string{"theorem3", "theorem6"} {
			add(fmt.Sprintf("%s/vertices%d", name, nodes), name, Config{Nodes: nodes, Seed: 3})
		}
	}
	add("welzl/n40", "welzl", Config{Nodes: 38, Params: map[string]float64{"eps": 0.1}})
	matrix := func(label string, n int, seed uint64, lo, hi float64) *core.Matrix {
		src := rng.New(seed)
		lgLo, lgHi := math.Log10(lo), math.Log10(hi)
		m, err := core.FromFunc(n, func(i, j int) float64 { return math.Pow(10, src.Range(lgLo, lgHi)) })
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return m
	}
	for _, n := range []int{5, 33, 80} {
		out = append(out, differentialSpace{fmt.Sprintf("random-asym/n%d", n), matrix("asym", n, uint64(n), 0.01, 100)})
	}
	out = append(out,
		differentialSpace{"random-sym/n64", core.Symmetrized(matrix("sym", 64, 9, 0.1, 1000))},
		differentialSpace{"random-wide/n40", matrix("wide", 40, 11, 1e-250, 1e250)},
		differentialSpace{"random-huge/n40", matrix("huge", 40, 12, 1e301, 2e301)},
	)
	return out
}

// route is one exact ζ or ϕ route's value on a table space.
type route struct {
	name string
	v    float64
}

// rowSource hides a matrix behind core.RowSpace, so shard.NewReplica
// streams it.
type rowSource struct{ core.RowSpace }

// streamedSource returns space as a row source that shard.NewReplica
// streams: a matrix is hidden behind rowSource, any other space keeps its
// own type (and symmetry marker).
func streamedSource(space core.Space) core.Space {
	rs := core.Rows(space)
	if _, dense := rs.(*core.Matrix); dense {
		return rowSource{rs}
	}
	return rs
}

// loopbackWorkers serves two remote shard workers on loopback TCP for the
// test's lifetime and returns their addresses.
func loopbackWorkers(t *testing.T) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var addrs []string
	done := make(chan struct{}, 2)
	for range 2 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		go func() {
			remote.Serve(ctx, ln, remote.ServerOptions{})
			done <- struct{}{}
		}()
	}
	t.Cleanup(func() {
		cancel()
		<-done
		<-done
	})
	return addrs
}

// backendRoutes returns p's value at tol on every executor the backend
// runs: shard.New over three in-process shard workers and over the
// unsharded session's single pool worker, a remote pool of the loopback
// workers at addrs, a streamed replica (tiny tiles so rows really page),
// and the tracker the coordinator seeds through in-process workers.
func backendRoutes(t *testing.T, space core.Space, p shard.Param, tol float64, addrs []string) []route {
	t.Helper()
	ctx := context.Background()
	must := func(v float64, err error) float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	coord := func(sp core.Space, k, tileRows int, workers func(*shard.Replica) []shard.Worker) *shard.Coordinator {
		t.Helper()
		rep, err := shard.NewReplica(ctx, sp, tol, tileRows, 2)
		if err != nil {
			t.Fatal(err)
		}
		var ws []shard.Worker
		if workers != nil {
			ws = workers(rep)
		}
		for range k {
			ws = append(ws, shard.NewLocalWorker(rep))
		}
		c, err := shard.New(rep, ws)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	m := core.Dense(space)
	var pool *remote.Pool
	remoteCoord := coord(m.Clone(), 0, 0, func(rep *shard.Replica) []shard.Worker {
		var err error
		if pool, err = remote.NewPool(remote.PoolConfig{Addrs: addrs, PingInterval: -1}, rep); err != nil {
			t.Fatal(err)
		}
		return pool.Workers()
	})
	defer pool.Close()
	_, tracked, err := coord(m.Clone(), 3, 0, nil).Tracker(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	return []route{
		{"shard.New", must(coord(m, 3, 0, nil).Max(ctx, p))},
		{"unsharded", must(coord(m, 0, 0, nil).Max(ctx, p))},
		{"remote", must(remoteCoord.Max(ctx, p))},
		{"streamed", must(coord(streamedSource(space), 2, 7, nil).Max(ctx, p))},
		{"Coordinator.Tracker", tracked},
	}
}

// zetaRoutes returns every exact ζ route's value on space at tol: the
// unsharded scan core.ZetaTolCtx, NewZetaTracker's initial value and the
// backend's executors (backendRoutes).
func zetaRoutes(t *testing.T, space core.Space, tol float64, addrs []string) []route {
	t.Helper()
	ctx := context.Background()
	z, err := core.ZetaTolCtx(ctx, space, tol)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := core.NewZetaTracker(ctx, core.Dense(space).Clone(), tol)
	if err != nil {
		t.Fatal(err)
	}
	return append([]route{{"ZetaTolCtx", z}, {"NewZetaTracker", tracker.Zeta()}},
		backendRoutes(t, space, shard.Zeta, tol, addrs)...)
}

// TestZetaDifferentialTable: on every space of the table, every exact ζ
// route (zetaRoutes) returns the serial per-pair oracle's bits, at the
// tight tolerance and at the ablation's coarsest, 1e-3. At 1e-3 many
// triplets tie within tolerance of the maximum, so ZetaTol also runs four
// times there and must return the oracle's bits every time: which tile
// meets a tie first must not decide the result.
func TestZetaDifferentialTable(t *testing.T) {
	spaces := differentialSpaces(t)
	addrs := loopbackWorkers(t)
	for _, tc := range spaces {
		for _, tol := range []float64{1e-12, 1e-3} {
			want := core.ZetaPerPair(tc.space, tol)
			for _, r := range zetaRoutes(t, tc.space, tol, addrs) {
				if math.Float64bits(r.v) != math.Float64bits(want) {
					t.Errorf("%s tol=%g: %s ζ %v, per-pair %v", tc.label, tol, r.name, r.v, want)
				}
			}
		}
		want := core.ZetaPerPair(tc.space, 1e-3)
		for run := 0; run < 4; run++ {
			if z := core.ZetaTol(tc.space, 1e-3); math.Float64bits(z) != math.Float64bits(want) {
				t.Errorf("%s tol=1e-3 run %d: ζ %v, per-pair %v", tc.label, run, z, want)
			}
		}
	}
	if len(spaces) < 80 {
		t.Fatalf("differential table has %d spaces, want ≥ 80", len(spaces))
	}
}

// TestVarphiDifferentialTable is the ϕ table: core.Varphi,
// NewVarphiTracker's initial value and the backend's executors
// (backendRoutes, with replicas at both tolerances of the ζ table) return
// VarphiPerPair's bits on every space of the table.
func TestVarphiDifferentialTable(t *testing.T) {
	ctx := context.Background()
	addrs := loopbackWorkers(t)
	for _, tc := range differentialSpaces(t) {
		want := core.VarphiPerPair(tc.space)
		tracker, err := core.NewVarphiTracker(ctx, core.Dense(tc.space).Clone())
		if err != nil {
			t.Fatal(err)
		}
		for _, tol := range []float64{1e-12, 1e-3} {
			routes := append([]route{{"Varphi", core.Varphi(tc.space)}, {"NewVarphiTracker", tracker.Varphi()}},
				backendRoutes(t, tc.space, shard.Varphi, tol, addrs)...)
			for _, r := range routes {
				if math.Float64bits(r.v) != math.Float64bits(want) {
					t.Errorf("%s tol=%g: %s ϕ %v, per-pair %v", tc.label, tol, r.name, r.v, want)
				}
			}
		}
	}
}
