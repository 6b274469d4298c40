package main

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"decaynet/internal/core"
	"decaynet/internal/scenario"
	"decaynet/internal/shard"
	"decaynet/internal/shard/remote"
)

// runRemote is the cross-process fault-tolerance smoke driver: it connects
// a coordinator to already-running decaynet-worker daemons at addrs, fans
// iters full ζ scans out over TCP with a deliberate pause between them (a
// wide window for the CI harness to SIGKILL a worker mid-run), and checks
// every merged result bit-for-bit against a local sharded scan of the same
// space. A kill mid-scan must surface as retries → reassignment → a
// "declared dead" lifecycle line, never as a wrong ζ or a driver error.
func runRemote(addrList string, n, iters int, pause time.Duration) error {
	addrs := strings.Split(addrList, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	inst, err := scenario.Build("random", scenario.Config{Nodes: n, Seed: 7})
	if err != nil {
		return err
	}
	m := core.Dense(inst.Space)

	// The expected value comes from the proven-bit-identical local path:
	// a same-K sharded coordinator over a clone of the space.
	localCoord, err := localShards(m.Clone(), len(addrs))
	if err != nil {
		return err
	}
	want, err := localCoord.Max(context.Background(), shard.Zeta)
	if err != nil {
		return err
	}

	coord, pool, err := remotePool(remote.PoolConfig{
		Addrs: addrs,
		// A killed worker should be declared dead within one or two scan
		// iterations, not after minutes of polite backoff.
		JobTimeout:  10 * time.Second,
		MaxAttempts: 2,
		BackoffBase: 20 * time.Millisecond,
		BackoffMax:  200 * time.Millisecond,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}, m)
	if err != nil {
		return err
	}
	defer pool.Close()

	fmt.Printf("remote driver: n=%d workers=%d iters=%d\n", n, len(addrs), iters)
	var zeta float64
	for i := 1; i <= iters; i++ {
		zeta, err = coord.Max(context.Background(), shard.Zeta)
		if err != nil {
			return fmt.Errorf("iter %d: %w", i, err)
		}
		if zeta != want {
			return fmt.Errorf("iter %d: remote zeta %v != local %v", i, zeta, want)
		}
		fmt.Printf("remote zeta iter=%d ok zeta=%v\n", i, zeta)
		if i < iters {
			time.Sleep(pause)
		}
	}
	st := pool.Stats()
	fmt.Printf("remote scan complete: zeta=%v deaths=%d revivals=%d resyncs=%d reassigned=%d local_fallbacks=%d\n",
		zeta, st.Deaths, st.Revivals, st.Resyncs, st.Reassigned, st.LocalFallbacks)
	return nil
}

// remoteBenchK is the worker count of the remote/zeta row: two loopback
// TCP workers, the smallest fleet that exercises the fan-out merge.
const remoteBenchK = 2

// benchRemoteZeta measures the remote sharded ζ scan: K loopback TCP
// workers hosting synced replicas, one full fenced scan per op. Against
// the in-process shard/zeta-k2 row, the gap is the wire tax — framing,
// JSON, and two scheduler hops per job.
func benchRemoteZeta(record func(op string, size int, fn func()), space core.Space, n int) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrs := make([]string, remoteBenchK)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[i] = ln.Addr().String()
		go remote.Serve(ctx, ln, remote.ServerOptions{})
	}

	coord, pool, err := remotePool(remote.PoolConfig{Addrs: addrs, PingInterval: -1}, core.Dense(space))
	if err != nil {
		return err
	}
	defer pool.Close()
	if _, err := coord.Max(context.Background(), shard.Zeta); err != nil { // warm the replicas
		return err
	}
	record("remote/zeta", n, func() {
		if _, err := coord.Max(context.Background(), shard.Zeta); err != nil {
			panic(err)
		}
	})
	return nil
}

// remotePool dials and syncs the workers of cfg over a replica of m and
// returns the coordinator over the pool's workers, as
// decaynet.WithRemoteWorkers does. The caller closes the pool.
func remotePool(cfg remote.PoolConfig, m *core.Matrix) (*shard.Coordinator, *remote.Pool, error) {
	rep, err := shard.NewReplica(context.Background(), m, 1e-12, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	pool, err := remote.NewPool(cfg, rep)
	if err != nil {
		return nil, nil, err
	}
	coord, err := shard.New(rep, pool.Workers())
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	return coord, pool, nil
}
