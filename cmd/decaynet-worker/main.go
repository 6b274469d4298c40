// Command decaynet-worker hosts remote shard replicas: a coordinator
// (an Engine built WithRemoteWorkers) connects over TCP, ships a
// full-space snapshot via the Sync handshake, keeps the replica current
// with version-fenced mutation batches, and fans its ζ/ϕ max, band and
// repair scans out to the worker's row ranges (affectance matrices are
// built on the coordinator and never reach a worker). One daemon serves
// any number of coordinator sessions, each with its own replica. Row
// ranges and dirty ids outside the replica are answered bad_request, and a
// request that panics is answered internal, so no request from a peer can
// take the daemon down.
//
// Usage:
//
//	decaynet-worker -addr :9471
//
// The process drains gracefully on SIGINT/SIGTERM: the listener closes,
// in-flight jobs are cancelled, and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"decaynet/internal/shard/remote"
)

var version = "dev"

func main() {
	var (
		addr        = flag.String("addr", ":9471", "TCP listen address")
		quiet       = flag.Bool("quiet", false, "suppress per-connection logging")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("decaynet-worker", version)
		return
	}
	log.SetPrefix("decaynet-worker: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := remote.ServerOptions{}
	if !*quiet {
		opts.Logf = log.Printf
	}
	log.Printf("listening on %s", ln.Addr())
	if err := remote.Serve(ctx, ln, opts); err != nil {
		log.Fatalf("serve: %v", err)
	}
	log.Printf("drained, exiting")
}
