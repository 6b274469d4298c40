package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// minCoveragePct is the share of every traced op's wall time its layer
// spans must account for.
const minCoveragePct = 90

// setupReps is how many times an untraced run sets its session up; the
// median is reported and the last session serves the timed phase.
const setupReps = 3

// workload is one benchmark workload.
type workload struct {
	name string
	// rate is the nominal op rate, measured on a 2-vCPU Xeon: an untraced
	// run executes round(seconds × rate) ops, a count fixed before anything
	// is timed, so a faster program finishes the same work sooner.
	rate float64
	// run is the untraced end-to-end run.
	run func(cfg config, n int, rep *report) error
	// trace is the traced per-layer pass.
	trace func(seed uint64, rep *report) (*tracer, error)
}

var workloads = []*workload{
	{name: "analyze", rate: 18, run: runAnalyze, trace: traceAnalyze},
	{name: "churn", rate: 280, run: runChurn, trace: traceChurn},
	{name: "city", rate: 2.2, run: runCity, trace: traceCity},
	{name: "scale-out", rate: 22, run: runScaleOut, trace: traceScaleOut},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runWorkload executes one untraced run.
func runWorkload(cfg config) (*report, error) {
	w := lookupWorkload(cfg.workload)
	n := int(math.Round(float64(cfg.seconds) * w.rate))
	if n < 1 {
		n = 1
	}
	rep := newReport()
	if err := w.run(cfg, n, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return rep, nil
}

// runTraced executes the traced pass of every workload, so one traced run
// prints every per-layer metric.
func runTraced(cfg config) (*report, error) {
	rep := newReport()
	var tracers []*tracer
	for _, w := range workloads {
		tr, err := w.trace(cfg.seed, rep)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", w.name, err)
		}
		tracers = append(tracers, tr)
		alloc, gc := tr.perOp()
		rep.add(w.name+".go.alloc_mib_per_op", "MiB", alloc, tr.opsTimed)
		rep.add(w.name+".go.gc_cycles_per_op", "count", gc, tr.opsTimed)
		cov := tr.coverage()
		rep.add(w.name+".span_coverage_pct", "%", cov, tr.opsTimed)
		if cov < minCoveragePct {
			rep.op(w.name+" span coverage", fmt.Errorf("layer spans cover %.1f%% of an op, want at least %d%%: a layer is missing", cov, minCoveragePct))
		}
		runtime.GC()
	}
	sortMetrics(rep)
	if err := writeSpans(".bench_build/perfbench-spans.jsonl", tracers); err != nil {
		return nil, err
	}
	return rep, nil
}

// sortMetrics orders a traced report's metrics as perLayer lists them.
func sortMetrics(rep *report) {
	pos := map[string]int{}
	for i, m := range perLayer {
		pos[m.Name] = i
	}
	sort.SliceStable(rep.metrics, func(i, j int) bool {
		return pos[rep.metrics[i].Name] < pos[rep.metrics[j].Name]
	})
}

// timings collects an untraced run's samples.
type timings struct {
	setup           []float64 // s
	op, write, read []float64 // ms
	wall            time.Duration
}

// timeSetup runs setup setupReps times, each after a forced GC, and
// records each wall time. Between repetitions discard (when non-nil)
// releases the previous session, untimed.
func (t *timings) timeSetup(setup func() error, discard func() error) error {
	for r := 0; r < setupReps; r++ {
		if r > 0 && discard != nil {
			if err := discard(); err != nil {
				return err
			}
		}
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return err
		}
		t.setup = append(t.setup, time.Since(start).Seconds())
	}
	return nil
}

// loop runs the timed phase: n closed-loop ops, each a write half then a
// read half, after a forced GC. A failed op is counted and its latency
// dropped.
func (t *timings) loop(rep *report, kind string, n int, write, read func(i int) error) {
	runtime.GC()
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := write(i)
		t1 := time.Now()
		if err == nil {
			err = read(i)
		}
		t2 := time.Now()
		rep.op(fmt.Sprintf("%s op %d", kind, i), err)
		if err != nil {
			continue
		}
		t.write = append(t.write, ms(t1.Sub(t0)))
		t.read = append(t.read, ms(t2.Sub(t1)))
		t.op = append(t.op, ms(t2.Sub(t0)))
	}
	t.wall = time.Since(start)
	rep.ops[kind] += n
}

// report adds the end-to-end metrics; heapMiB is the live heap measured
// with the session still alive.
func (t *timings) report(rep *report, heapMiB float64) {
	rep.add("setup_s", "s", quantile(t.setup, 0.5), len(t.setup))
	rep.add("ops_per_s", "1/s", float64(len(t.op))/t.wall.Seconds(), len(t.op))
	rep.addLatency("op", t.op)
	rep.addLatency("write", t.write)
	rep.addLatency("read", t.read)
	rep.add("heap_live_mib", "MiB", heapMiB, 1)
}

// liveHeapMiB forces a GC and returns the live heap in MiB, keeping the
// given sessions alive until it has been measured.
func liveHeapMiB(sessions ...any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(sessions)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// addLayer reports the median of the named spans.
func addLayer(rep *report, tr *tracer, metric, span string) {
	xs := tr.samples(span)
	rep.add(tr.workload+"."+metric, "ms", quantile(xs, 0.5), len(xs))
}

// addLayerSeconds reports the single set-up span of that name, in s.
func addLayerSeconds(rep *report, tr *tracer, metric, span string) {
	xs := tr.samples(span)
	rep.add(tr.workload+"."+metric, "s", quantile(xs, 0.5)/1e3, len(xs))
}
