package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"decaynet/internal/core"
	"decaynet/internal/shard"
	"decaynet/internal/tier"
)

// ServerOptions parameterizes Serve.
type ServerOptions struct {
	// MaxFrame bounds a single request frame (default DefaultMaxFrame).
	MaxFrame int
	// WriteTimeout bounds each response write (default 30s): a stalled
	// coordinator must not pin a worker goroutine forever.
	WriteTimeout time.Duration
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

func (o *ServerOptions) maxFrame() int {
	if o.MaxFrame > 0 {
		return o.MaxFrame
	}
	return DefaultMaxFrame
}

func (o *ServerOptions) writeTimeout() time.Duration {
	if o.WriteTimeout > 0 {
		return o.WriteTimeout
	}
	return 30 * time.Second
}

func (o *ServerOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Serve accepts coordinator connections on ln and serves the worker side
// of the shard protocol until ctx is cancelled (or the listener fails).
// Each connection is one independent coordinator session with its own
// replica: the Sync handshake materializes it, Mutate batches keep it
// current, and the scan methods range-scan it through the same
// shard.Worker the in-process runtime uses — so a remote shard computes
// bit-identically to a local one. Requests multiplex over the connection:
// each runs on its own goroutine (a heartbeat ping is answered while a
// long scan runs), writes are serialized, and a cancel frame aborts the
// in-flight request with the matching id.
func Serve(ctx context.Context, ln net.Listener, opts ServerOptions) error {
	var (
		wg     sync.WaitGroup
		connMu sync.Mutex
		conns  = make(map[net.Conn]struct{})
	)
	// Closing the listener unblocks Accept; closing live connections
	// unblocks their read loops, cancelling in-flight jobs.
	stop := context.AfterFunc(ctx, func() {
		ln.Close()
		connMu.Lock()
		for c := range conns {
			c.Close()
		}
		connMu.Unlock()
	})
	defer stop()

	for {
		c, err := ln.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return nil // graceful: the AfterFunc closed the listener
			}
			return err
		}
		connMu.Lock()
		conns[c] = struct{}{}
		connMu.Unlock()
		opts.logf("worker: coordinator connected from %s", c.RemoteAddr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				connMu.Lock()
				delete(conns, c)
				connMu.Unlock()
			}()
			sc := &serverConn{c: c, opts: &opts, inflight: make(map[uint64]context.CancelFunc)}
			sc.run(ctx)
			opts.logf("worker: coordinator %s disconnected", c.RemoteAddr())
		}()
	}
}

// serverConn is one coordinator session: the replica it synced, the
// version fence, and the in-flight request registry.
type serverConn struct {
	c    net.Conn
	opts *ServerOptions
	wmu  sync.Mutex // serializes response frames

	// repMu serializes replica replacement/mutation (write) against scans
	// (read) — the coordinator never interleaves them on a healthy session,
	// but a faulted retry can.
	repMu   sync.RWMutex
	rep     *shard.Replica
	work    shard.Worker
	version uint64

	mu       sync.Mutex
	inflight map[uint64]context.CancelFunc
	jobs     sync.WaitGroup
}

func (s *serverConn) run(ctx context.Context) {
	defer s.c.Close()
	defer s.jobs.Wait()
	for {
		body, err := readFrame(s.c, s.opts.maxFrame())
		if err != nil {
			return // conn closed or broken; in-flight jobs see closed writes
		}
		var req request
		if err := json.Unmarshal(body, &req); err != nil {
			// An undecodable frame is unrecoverable: ids are lost, so the
			// stream can't be answered coherently. Drop the connection.
			s.opts.logf("worker: undecodable frame from %s: %v", s.c.RemoteAddr(), err)
			return
		}
		if req.Method == methodCancel {
			var cj cancelJob
			if json.Unmarshal(req.Job, &cj) == nil {
				s.mu.Lock()
				if cancel := s.inflight[cj.ID]; cancel != nil {
					cancel()
				}
				s.mu.Unlock()
			}
			continue // fire-and-forget: no response
		}
		jctx, cancel := context.WithCancel(ctx)
		s.mu.Lock()
		s.inflight[req.ID] = cancel
		s.mu.Unlock()
		s.jobs.Add(1)
		go func(req request) {
			defer s.jobs.Done()
			defer func() {
				s.mu.Lock()
				delete(s.inflight, req.ID)
				s.mu.Unlock()
				cancel()
			}()
			result, err := s.serve(jctx, &req)
			s.reply(req.ID, result, err)
		}(req)
	}
}

// serve runs one request, turning a panic into a KindInternal answer: the
// payload is untrusted, and no request may take the worker process down.
func (s *serverConn) serve(ctx context.Context, req *request) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.opts.logf("worker: panic serving %s from %s: %v", req.Method, s.c.RemoteAddr(), r)
			result, err = nil, &Error{Kind: KindInternal, Msg: fmt.Sprintf("panic serving %s: %v", req.Method, r)}
		}
	}()
	return s.dispatch(ctx, req)
}

// checkScope rejects a parameter shard.Worker does not know and a row
// range outside [0, n) before either reaches a scan.
func checkScope(p shard.Param, r shard.Range, n int) error {
	if p > shard.Varphi {
		return &Error{Kind: KindBadRequest, Msg: fmt.Sprintf("unknown parameter %d", p)}
	}
	if r.Lo < 0 || r.Lo > r.Hi || r.Hi > n {
		return &Error{Kind: KindBadRequest, Msg: fmt.Sprintf("rows [%d,%d) outside [0,%d)", r.Lo, r.Hi, n)}
	}
	return nil
}

// decode unmarshals a request's job, answering bad_request on failure.
func decode(raw json.RawMessage, job any) error {
	if err := json.Unmarshal(raw, job); err != nil {
		return &Error{Kind: KindBadRequest, Msg: err.Error()}
	}
	return nil
}

// checkDirty rejects a dirty node id outside [0, n).
func checkDirty(dirty []int, n int) error {
	for _, d := range dirty {
		if d < 0 || d >= n {
			return &Error{Kind: KindBadRequest, Msg: fmt.Sprintf("dirty node %d outside [0,%d)", d, n)}
		}
	}
	return nil
}

// reply writes one response frame under the write lock and deadline.
func (s *serverConn) reply(id uint64, result any, err error) {
	resp := response{ID: id}
	if err != nil {
		var re *Error
		if errors.As(err, &re) {
			resp.Kind, resp.Err = re.Kind, re.Msg
		} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			resp.Kind, resp.Err = KindCancelled, err.Error()
		} else {
			resp.Kind, resp.Err = KindInternal, err.Error()
		}
	} else {
		raw, merr := json.Marshal(result)
		if merr != nil {
			resp.Kind, resp.Err = KindInternal, merr.Error()
		} else {
			resp.Result = raw
		}
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.c.SetWriteDeadline(time.Now().Add(s.opts.writeTimeout()))
	if werr := writeFrame(s.c, resp); werr != nil {
		s.c.Close() // a stalled/broken coordinator conn: tear the session down
	}
}

// dispatch decodes and runs one request.
func (s *serverConn) dispatch(ctx context.Context, req *request) (any, error) {
	switch req.Method {
	case methodSync:
		var job SyncJob
		if err := decode(req.Job, &job); err != nil {
			return nil, err
		}
		return s.handleSync(&job)
	case methodMutate:
		var job MutateJob
		if err := decode(req.Job, &job); err != nil {
			return nil, err
		}
		return s.handleMutate(&job)
	case methodPing:
		s.repMu.RLock()
		defer s.repMu.RUnlock()
		return PingResult{Version: s.version, Synced: s.rep != nil}, nil
	}

	// Scan methods: all fenced on the replica version.
	s.repMu.RLock()
	defer s.repMu.RUnlock()
	if s.rep == nil {
		return nil, &Error{Kind: KindNoReplica, Msg: "no replica: Sync required"}
	}
	if req.Version != s.version {
		return nil, &Error{Kind: KindStale, Msg: fmt.Sprintf("replica at version %d, request fenced on %d", s.version, req.Version)}
	}
	n := s.rep.N()
	switch req.Method {
	case methodMax:
		var job shard.ScanJob
		if err := decode(req.Job, &job); err != nil {
			return nil, err
		}
		if err := checkScope(job.Param, job.Rows, n); err != nil {
			return nil, err
		}
		return s.work.Max(ctx, job)
	case methodBand:
		var job shard.BandJob
		if err := decode(req.Job, &job); err != nil {
			return nil, err
		}
		if err := checkScope(job.Param, job.Rows, n); err != nil {
			return nil, err
		}
		return s.work.Band(ctx, job)
	case methodRepair:
		var job shard.RepairJob
		if err := decode(req.Job, &job); err != nil {
			return nil, err
		}
		if err := checkScope(job.Param, job.Rows, n); err != nil {
			return nil, err
		}
		if err := checkDirty(job.Dirty, n); err != nil {
			return nil, err
		}
		return s.work.Repair(ctx, job)
	}
	return nil, &Error{Kind: KindBadRequest, Msg: "unknown method " + req.Method}
}

// handleSync rebuilds the replica from a full-space snapshot: either the
// dense flat matrix or the tiered payload (CSR near field + tail + scan
// extrema), which reconstructs a streamed replica that scans
// bit-identically to the coordinator's.
func (s *serverConn) handleSync(job *SyncJob) (any, error) {
	var rep *shard.Replica
	if job.Tiered != nil {
		var err error
		if rep, err = tieredReplica(job); err != nil {
			return nil, err
		}
	} else {
		m, err := core.NewMatrixFlat(job.N, []float64(job.Flat))
		if err != nil {
			return nil, &Error{Kind: KindBadRequest, Msg: "sync: " + err.Error()}
		}
		rep, _ = shard.NewReplica(context.Background(), m, job.Tol, 0, 0) // a matrix replica cannot fail
	}
	s.repMu.Lock()
	defer s.repMu.Unlock()
	s.rep = rep
	s.work = shard.NewLocalWorker(rep)
	s.version = job.Version
	s.opts.logf("worker: synced replica n=%d version=%d streamed=%v", job.N, job.Version, rep.Streamed())
	return struct{}{}, nil
}

// tieredReplica materializes a streamed replica from a tiered snapshot.
// The payload is untrusted: the config/model re-run the strict parsers,
// tier.FromSnapshot validates the CSR structure, and the shipped extrema
// lengths are checked against n before the scan is assembled.
func tieredReplica(job *SyncJob) (*shard.Replica, error) {
	if job.N < 0 || len(job.Flat) != 0 {
		return nil, &Error{Kind: KindBadRequest, Msg: fmt.Sprintf("sync: tiered payload with n=%d and %d dense values", job.N, len(job.Flat))}
	}
	snap, ex, err := job.Tiered.decodeTiered(job.N)
	if err != nil {
		return nil, &Error{Kind: KindBadRequest, Msg: err.Error()}
	}
	ts, err := tier.FromSnapshot(snap)
	if err != nil {
		return nil, &Error{Kind: KindBadRequest, Msg: "sync: " + err.Error()}
	}
	rep, err := shard.NewStreamedReplicaFrom(ts, job.Tol, job.Tiered.TileRows, job.Tiered.MaxTiles, ex)
	if err != nil {
		return nil, &Error{Kind: KindBadRequest, Msg: "sync: " + err.Error()}
	}
	return rep, nil
}

// handleMutate applies a version-fenced mutation batch to the replica and
// patches its scan states, mirroring the coordinator-side repair prefix.
func (s *serverConn) handleMutate(job *MutateJob) (any, error) {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	if s.rep == nil {
		return nil, &Error{Kind: KindNoReplica, Msg: "no replica: Sync required"}
	}
	if s.version != job.BaseVersion {
		return nil, &Error{Kind: KindStale, Msg: fmt.Sprintf("replica at version %d, mutation fenced on %d", s.version, job.BaseVersion)}
	}
	if s.rep.Streamed() {
		return nil, &Error{Kind: KindBadRequest, Msg: "mutate: tiered replica is immutable"}
	}
	m := s.rep.M()
	n := m.N()
	if err := checkDirty(job.Dirty, n); err != nil {
		return nil, err
	}
	for _, re := range job.Rows {
		if re.Index < 0 || re.Index >= n {
			return nil, &Error{Kind: KindBadRequest, Msg: fmt.Sprintf("mutate: row %d outside [0,%d)", re.Index, n)}
		}
		if err := m.SetRow(re.Index, []float64(re.Vals)); err != nil {
			return nil, &Error{Kind: KindBadRequest, Msg: "mutate: " + err.Error()}
		}
	}
	for _, ce := range job.Cols {
		if ce.Index < 0 || ce.Index >= n || len(ce.Vals) != n {
			return nil, &Error{Kind: KindBadRequest, Msg: fmt.Sprintf("mutate: col %d/%d vals for n=%d", ce.Index, len(ce.Vals), n)}
		}
		for i, v := range ce.Vals {
			if i == ce.Index {
				continue
			}
			if err := m.Set(i, ce.Index, v); err != nil {
				return nil, &Error{Kind: KindBadRequest, Msg: "mutate: " + err.Error()}
			}
		}
	}
	s.rep.Patch(job.Dirty, job.RowsOnly)
	s.version = job.Version
	return struct{}{}, nil
}
