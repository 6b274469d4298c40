package decaynet_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"decaynet"
	"decaynet/internal/shard/remote"
)

// sentCountingConn counts the bytes the coordinator writes to a worker.
type sentCountingConn struct {
	net.Conn
	sent *atomic.Int64
}

func (c sentCountingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

// countSent dials every worker through a connection that adds the bytes
// the coordinator sends to sent.
func countSent(sent *atomic.Int64) func(*remote.PoolConfig) {
	return func(cfg *remote.PoolConfig) {
		cfg.Dial = func(addr string, ver func() uint64) (remote.Transport, error) {
			conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
			if err != nil {
				return nil, err
			}
			return remote.NewClient(sentCountingConn{conn, sent}, remote.DialOptions{Version: ver}), nil
		}
	}
}

// TestRemoteAffectancesStayOnCoordinator pins where a remote session
// builds its affectance matrices: once the first ζ/ϕ reads are done, an
// Affectances or Capacity call with a fresh power vector sends no byte to
// any worker, and its matrix still equals the local engine's bit for bit.
// Dense and tiered sessions both hold the space on the coordinator.
func TestRemoteAffectancesStayOnCoordinator(t *testing.T) {
	farm := startFarm(t, 2)
	var denseSent, tieredSent atomic.Int64
	rem, ref := buildRemotePair(t, testMatrix(t, 32, 2718, false), farm, countSent(&denseSent), decaynet.WithMutationTracking())
	trem, tref := buildTieredRemotePair(t, farm, countSent(&tieredSent), tieredUrbanOpts(23))
	for _, tc := range []struct {
		name     string
		rem, ref *decaynet.Engine
		sent     *atomic.Int64
	}{{"dense", rem, ref, &denseSent}, {"tiered", trem, tref, &tieredSent}} {
		tc.rem.Zeta()
		tc.rem.Phi()
		if tc.sent.Load() == 0 {
			t.Fatalf("%s: the first ζ/ϕ reads sent nothing; the counting dialer is not on the path", tc.name)
		}
		for _, level := range []float64{1.5, 2.5, 4} {
			before := tc.sent.Load()
			p, pr := tc.rem.UniformPower(level), tc.ref.UniformPower(level)
			got, want := tc.rem.Affectances(p), tc.ref.Affectances(pr)
			if !equalInts(tc.rem.Capacity(tc.rem.LinearPower(level), nil), tc.ref.Capacity(tc.ref.LinearPower(level), nil)) {
				t.Fatalf("%s power %v: capacity differs from the local engine", tc.name, level)
			}
			if d := tc.sent.Load() - before; d != 0 {
				t.Fatalf("%s power %v: fresh-power reads sent %d bytes to the workers, want 0", tc.name, level, d)
			}
			for w := 0; w < want.N(); w++ {
				for v := 0; v < want.N(); v++ {
					if got.Raw(w, v) != want.Raw(w, v) {
						t.Fatalf("%s power %v: affectance (%d,%d) %v, local %v", tc.name, level, w, v, got.Raw(w, v), want.Raw(w, v))
					}
				}
			}
		}
	}
}
