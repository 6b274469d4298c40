package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"decaynet/internal/core"
	"decaynet/internal/geom"
	"decaynet/internal/shard"
	"decaynet/internal/tier"
)

// syncSeeds returns the jobs of real Sync handshakes as the client
// encodes them: a dense replica's, and a streamed replica's over a
// float32-tail and over a model-tail tiered space.
func syncSeeds(t testing.TB) [][]byte {
	t.Helper()
	pts := make([]geom.Point, 7)
	for i := range pts {
		pts[i] = geom.Pt(float64(i), float64(i*i%7))
	}
	gs, err := core.NewGeometricSpace(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := core.Dense(gs)
	spaces := []core.Space{m}
	for _, opts := range []tier.Options{
		{Config: tier.Config{K: 2, Tail: tier.TailFloat32}},
		{Config: tier.Config{K: 2, Tail: tier.TailModel}, Points: pts},
	} {
		ts, err := tier.Build(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		spaces = append(spaces, ts)
	}
	var seeds [][]byte
	for _, sp := range spaces {
		rep, err := shard.NewReplica(context.Background(), sp, 1e-12, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := snapshotSource(rep)
		if err != nil {
			t.Fatal(err)
		}
		job := snap(3)
		raw, err := encodeJob(&job)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	return seeds
}

// FuzzSyncJob feeds arbitrary bytes to the worker's Sync decode and
// handler. It must never panic or allocate far beyond the job's size, and
// must either answer bad_request or hold a replica of the job's node
// count — which then answers bad_request to a scan of a parameter it does
// not know, before any scan runs.
func FuzzSyncJob(f *testing.F) {
	for _, seed := range syncSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte(`{"n":4294967296,"tol":1e-12,"version":0}`))
	f.Add([]byte(`{"n":3,"tol":1e-12,"version":0,"flat":"AAAA"}`))
	f.Add([]byte(`{"n":-1,"tiered":{"sym":true}}`))
	f.Fuzz(func(t *testing.T, job []byte) {
		s := &serverConn{opts: &ServerOptions{}}
		ctx := context.Background()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := s.dispatch(ctx, &request{Method: methodSync, Job: job})
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 64*uint64(len(job))+1<<20 {
			t.Fatalf("a %d-byte Sync job allocated %d bytes", len(job), grown)
		}
		if err != nil {
			wantKind(t, "rejected Sync", err, KindBadRequest)
			return
		}
		var sj SyncJob
		if err := json.Unmarshal(job, &sj); err != nil {
			t.Fatalf("accepted Sync job does not decode: %v", err)
		}
		if s.rep == nil || s.rep.N() != sj.N {
			t.Fatalf("Sync of n=%d left replica %v", sj.N, s.rep)
		}
		n := s.rep.N()
		for _, scan := range []struct{ method, job string }{
			{methodMax, `{"param":%d,"rows":{"lo":0,"hi":%d}}`},
			{methodBand, `{"param":%d,"rows":{"lo":0,"hi":%d},"floor":1}`},
			{methodRepair, `{"param":%d,"rows":{"lo":0,"hi":%d},"dirty":[],"floor":1}`},
		} {
			raw := fmt.Sprintf(scan.job, shard.Varphi+1, n)
			_, err := s.dispatch(ctx, &request{Method: scan.method, Version: s.version, Job: json.RawMessage(raw)})
			wantKind(t, scan.method+" of an unknown parameter", err, KindBadRequest)
		}
	})
}
