package decaynet

import (
	"context"
	"errors"
	"math"

	"decaynet/internal/shard"
	"decaynet/internal/shard/remote"
)

// WithRemoteTweak exposes the remote pool configuration seam to the
// package's tests: the fault-injection equivalence wall shrinks timeouts
// and wraps transports with the deterministic fault injector through it.
var WithRemoteTweak = withRemoteTweak

// RemotePoolStats returns the recovery counters of a WithRemoteWorkers
// session (zero for local engines).
func (e *Engine) RemotePoolStats() remote.Stats {
	if e.be == nil || e.be.pool == nil {
		return remote.Stats{}
	}
	return e.be.pool.Stats()
}

// CoordinatorScans reruns the session coordinator's exact ζ and ϕ max
// scans through its workers, bypassing the cached values and trackers, and
// returns ζ and φ = lg ϕ in the form Zeta and Phi report them. Immutable
// tiered sessions have no Update to generate worker traffic, so the remote
// fault walls drive their transports through it.
func (e *Engine) CoordinatorScans(ctx context.Context) (zeta, phi float64, err error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.be == nil {
		return 0, 0, errors.New("decaynet: session has no shard coordinator")
	}
	if zeta, err = e.be.Max(ctx, shard.Zeta); err != nil {
		return 0, 0, err
	}
	varphi, err := e.be.Max(ctx, shard.Varphi)
	if err != nil {
		return 0, 0, err
	}
	return zeta, math.Log2(varphi), nil
}
