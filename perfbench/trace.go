package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one op share Op; Parent is the
// index of the op's root span (-1 for roots and set-up spans).
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Op       int    `json:"op"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps spans in memory. A nil *tracer is the untraced run: every
// method then just calls through, so traced and untraced runs execute the
// same op code.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
	op       int // current op index, -1 outside ops
	root     int // index of the open op span, -1 when none

	// Memory statistics summed over op windows only, so the twins and
	// checks a traced run does between ops stay out of the per-op figures.
	allocBytes uint64
	gcCycles   uint32
	opsTimed   int
	ms         runtime.MemStats
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload, op: -1, root: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// layer runs f inside a span named after the layer call it makes.
func (t *tracer) layer(name string, f func() error) error {
	if t == nil {
		return f()
	}
	start := t.now()
	err := f()
	t.spans = append(t.spans, span{t.workload, name, t.op, t.root, start, t.now()})
	return err
}

// beginOp opens the root span of op i.
func (t *tracer) beginOp(i int) {
	if t == nil {
		return
	}
	runtime.ReadMemStats(&t.ms)
	t.allocBytes -= t.ms.TotalAlloc
	t.gcCycles -= t.ms.NumGC
	t.op = i
	t.root = len(t.spans)
	t.spans = append(t.spans, span{t.workload, "op", i, -1, t.now(), 0})
}

// endOp closes the open op span.
func (t *tracer) endOp() {
	if t == nil || t.root < 0 {
		return
	}
	t.spans[t.root].EndNS = t.now()
	runtime.ReadMemStats(&t.ms)
	t.allocBytes += t.ms.TotalAlloc
	t.gcCycles += t.ms.NumGC
	t.opsTimed++
	t.op, t.root = -1, -1
}

// samples returns the durations (ms) of every span with the given name.
func (t *tracer) samples(name string) []float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNS > 0 {
			xs = append(xs, s.ms())
		}
	}
	return xs
}

// opSums returns, per op, the total of the named child spans of that op
// (ms), in op order.
func (t *tracer) opSums(names ...string) []float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var (
		out  []float64
		last = -1
	)
	for _, s := range t.spans {
		if s.Parent < 0 || !want[s.Name] {
			continue
		}
		if s.Op != last {
			out = append(out, 0)
			last = s.Op
		}
		out[len(out)-1] += s.ms()
	}
	return out
}

// coverage returns the smallest share (percent) of an op span's wall time
// covered by its child layer spans. A missing layer shows as a gap.
func (t *tracer) coverage() float64 {
	child := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	worst := 100.0
	for i, s := range t.spans {
		if s.Name != "op" || s.Parent >= 0 {
			continue
		}
		if pct := 100 * float64(child[i]) / float64(s.EndNS-s.StartNS); pct < worst {
			worst = pct
		}
	}
	return worst
}

// perOp returns the memory statistics of the op windows, per op.
func (t *tracer) perOp() (allocMiB, gcCycles float64) {
	if t.opsTimed == 0 {
		return 0, 0
	}
	n := float64(t.opsTimed)
	return float64(t.allocBytes) / (1 << 20) / n, float64(t.gcCycles) / n
}

// writeSpans writes the spans as JSON lines to path, when its directory
// exists (the build directory run.sh creates); it is a no-op otherwise.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
