// Command perfbench is decaynet's end-to-end and per-layer benchmark.
//
// It drives four workloads through the public decaynet API, an in-process
// decaynetd session server over loopback HTTP, and in-process remote shard
// workers over loopback TCP:
//
//	analyze    one fresh dense urban session per op: ζ, ϕ, capacity, schedule
//	churn      a long-lived served office session: mutation batch, then reads
//	city       an n=16384 tiered urban session: fresh-power capacity + schedule
//	scale-out  a dense tracked urban session split across two remote workers
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload churn --seed 7 --seconds 12 --trace 0
//
// Every run is closed-loop with one client and executes a fixed, seeded op
// list whose length is seconds × the workload's nominal rate, so every run
// of a workload does identical work whatever the speed of the code under
// test. With --trace 0 the last line of standard output is a JSON object
// with the end-to-end metrics; with --trace 1 the run executes a shorter
// traced pass of every workload, times the calls into each layer, checks
// the bit-identical twins, and reports the per-layer metrics instead. The
// line before it is a JSON record of the environment, the seed, the sample
// count behind every metric and a digest of every output. A run in which
// any op fails exits with status 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// config is one invocation's parsed arguments.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var rep *report
	if cfg.trace {
		rep, err = runTraced(cfg)
	} else {
		rep, err = runWorkload(cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout, cfg); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep.failed > 0 {
		for _, f := range rep.failures {
			fmt.Fprintln(stderr, "perfbench: failed:", f)
		}
		return 1
	}
	return 0
}

func parseArgs(args []string, stderr io.Writer) (config, error) {
	var (
		cfg   config
		trace int
	)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the op list")
	fs.IntVar(&cfg.seconds, "seconds", 12, "nominal length of the timed phase; fixes the op count")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if lookupWorkload(cfg.workload) == nil {
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds < 1 || cfg.seconds > 60 {
		return cfg, errors.New("--seconds must be in [1, 60]")
	}
	if trace != 0 && trace != 1 {
		return cfg, errors.New("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	return cfg, nil
}
