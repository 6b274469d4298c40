package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"decaynet"
	"decaynet/internal/shard/remote"
)

// countingListener counts the bytes every accepted connection reads and
// writes, so the benchmark measures wire traffic without touching the
// program.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// workers is a set of in-process remote shard workers on loopback TCP.
type workers struct {
	addrs  []string
	bytes  atomic.Int64 // read + written by the workers, both directions
	cancel context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	errs   []error
}

func startWorkers(k int) (*workers, error) {
	ctx, cancel := context.WithCancel(context.Background())
	w := &workers{cancel: cancel}
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.stop()
			return nil, fmt.Errorf("worker listen: %w", err)
		}
		w.addrs = append(w.addrs, ln.Addr().String())
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			if err := remote.Serve(ctx, countingListener{ln, &w.bytes}, remote.ServerOptions{}); err != nil {
				w.mu.Lock()
				w.errs = append(w.errs, err)
				w.mu.Unlock()
			}
		}()
	}
	return w, nil
}

// stop cancels every worker and waits until each has returned.
func (w *workers) stop() error {
	w.cancel()
	w.wg.Wait()
	return errors.Join(w.errs...)
}

// daemon is an in-process decaynetd session server on loopback HTTP, with
// a keep-alive client that counts request and response body bytes.
type daemon struct {
	base      string
	srv       *http.Server
	client    *http.Client
	done      chan error
	reqBytes  int64
	respBytes int64
}

func startDaemon() (*daemon, error) {
	handler, err := decaynet.NewServer(decaynet.ServeConfig{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("daemon listen: %w", err)
	}
	d := &daemon{
		base:   "http://" + ln.Addr().String(),
		srv:    &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: 2 * time.Minute},
		done:   make(chan error, 1),
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// call sends one request with an optional pre-encoded body, requires a
// 2xx status, and decodes the JSON response into out (when non-nil).
func (d *daemon) call(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	d.reqBytes += int64(len(body))
	d.respBytes += int64(len(data))
	if err := checkStatus(method+" "+path, resp.StatusCode); err != nil {
		return fmt.Errorf("%w: %s", err, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}
