package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"decaynet/internal/shard"
)

// Transport is the full coordinator-side view of one remote worker: the
// shard.Worker scan boundary plus the replica-lifecycle exchanges (Sync
// handshake, version-fenced mutation shipping, heartbeat) and connection
// teardown. *Client implements it over one TCP connection; FaultTransport
// wraps any implementation with deterministic fault injection.
type Transport interface {
	shard.Worker
	// Sync ships a full-space snapshot, (re)building the worker's replica
	// at the snapshot's version.
	Sync(ctx context.Context, snap SyncJob) error
	// Mutate ships one applied session mutation, fenced on BaseVersion.
	Mutate(ctx context.Context, mut MutateJob) error
	// Ping heartbeats the worker, returning its replica version.
	Ping(ctx context.Context) (PingResult, error)
	// Close tears the connection down; in-flight calls fail.
	Close() error
}

// ErrClosed is returned by calls on a closed (or broken) client.
var ErrClosed = errors.New("remote: connection closed")

// Client is the coordinator-side endpoint of one worker connection.
// Requests multiplex: any number of calls may be in flight concurrently
// (the pool's heartbeat pings a worker while its scan runs), each matched
// to its response by id. A context cancellation sends a best-effort cancel
// frame so the worker aborts the job instead of scanning on.
type Client struct {
	conn         net.Conn
	maxFrame     int
	writeTimeout time.Duration
	ver          func() uint64

	wmu sync.Mutex // serializes request frames

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan response
	err     error // set once the read loop dies
	closed  chan struct{}
}

// DialOptions parameterizes Dial.
type DialOptions struct {
	// DialTimeout bounds the TCP connect (default 10s).
	DialTimeout time.Duration
	// WriteTimeout bounds each request frame write (default 30s).
	WriteTimeout time.Duration
	// MaxFrame bounds response frames (default DefaultMaxFrame).
	MaxFrame int
	// Version, when non-nil, stamps every scan request with the
	// coordinator's replica version at call time, so the worker serves it
	// only when its replica sits exactly at that fence. Nil stamps 0.
	Version func() uint64
}

// Dial connects to a worker daemon at addr.
func Dial(addr string, opts DialOptions) (*Client, error) {
	dt := opts.DialTimeout
	if dt <= 0 {
		dt = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, dt)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, opts), nil
}

// NewClient wraps an established connection (tests use net.Pipe).
func NewClient(conn net.Conn, opts DialOptions) *Client {
	wt := opts.WriteTimeout
	if wt <= 0 {
		wt = 30 * time.Second
	}
	mf := opts.MaxFrame
	if mf <= 0 {
		mf = DefaultMaxFrame
	}
	c := &Client{
		conn:         conn,
		maxFrame:     mf,
		writeTimeout: wt,
		ver:          opts.Version,
		pending:      make(map[uint64]chan response),
		closed:       make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// readLoop dispatches response frames to their waiting calls until the
// connection dies, then fails every pending call.
func (c *Client) readLoop() {
	var rerr error
	for {
		body, err := readFrame(c.conn, c.maxFrame)
		if err != nil {
			rerr = err
			break
		}
		var resp response
		if err := json.Unmarshal(body, &resp); err != nil {
			rerr = fmt.Errorf("remote: undecodable response frame: %w", err)
			break
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
	c.conn.Close()
	c.mu.Lock()
	if c.err == nil {
		c.err = fmt.Errorf("%w: %v", ErrClosed, rerr)
	}
	c.pending = nil // waiting calls are woken by the closed channel
	c.mu.Unlock()
	close(c.closed)
}

// Close tears the connection down.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.err == nil {
		c.err = ErrClosed
	}
	c.mu.Unlock()
	return c.conn.Close()
}

// call performs one request/response exchange. result, when non-nil, is
// unmarshalled from the response payload.
func (c *Client) call(ctx context.Context, method string, version uint64, job any, result any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	raw, err := encodeJob(job)
	if err != nil {
		return err
	}
	ch := make(chan response, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	if err := c.writeRequest(encodeRequest(id, method, version, raw)); err != nil {
		c.mu.Lock()
		if c.pending != nil {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		c.conn.Close() // a half-written frame poisons the stream
		return err
	}

	select {
	case resp := <-ch:
		if resp.Kind != "" || resp.Err != "" {
			return &Error{Kind: resp.Kind, Msg: resp.Err}
		}
		if result != nil {
			if err := json.Unmarshal(resp.Result, result); err != nil {
				return fmt.Errorf("remote: undecodable %s result: %w", method, err)
			}
		}
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		if c.pending != nil {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		// Best-effort cancel so the worker aborts the scan; a failed write
		// here means the conn is dying anyway.
		craw, _ := json.Marshal(cancelJob{ID: id})
		c.writeRequest(encodeRequest(0, methodCancel, 0, craw))
		return ctx.Err()
	case <-c.closed:
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return err
	}
}

func (c *Client) writeRequest(body []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	return writeBody(c.conn, body)
}

// Sync implements Transport.
func (c *Client) Sync(ctx context.Context, snap SyncJob) error {
	return c.call(ctx, methodSync, 0, &snap, nil)
}

// Mutate implements Transport.
func (c *Client) Mutate(ctx context.Context, mut MutateJob) error {
	return c.call(ctx, methodMutate, 0, &mut, nil)
}

// Ping implements Transport.
func (c *Client) Ping(ctx context.Context) (PingResult, error) {
	var pr PingResult
	err := c.call(ctx, methodPing, 0, struct{}{}, &pr)
	return pr, err
}

// version is the fence stamped on every scan request.
func (c *Client) version() uint64 {
	if c.ver == nil {
		return 0
	}
	return c.ver()
}

// Max implements shard.Worker.
func (c *Client) Max(ctx context.Context, job shard.ScanJob) (shard.MaxResult, error) {
	var res shard.MaxResult
	err := c.call(ctx, methodMax, c.version(), &job, &res)
	return res, err
}

// Band implements shard.Worker.
func (c *Client) Band(ctx context.Context, job shard.BandJob) (shard.BandResult, error) {
	var res shard.BandResult
	err := c.call(ctx, methodBand, c.version(), &job, &res)
	return res, err
}

// Repair implements shard.Worker.
func (c *Client) Repair(ctx context.Context, job shard.RepairJob) (shard.BandResult, error) {
	var res shard.BandResult
	err := c.call(ctx, methodRepair, c.version(), &job, &res)
	return res, err
}
