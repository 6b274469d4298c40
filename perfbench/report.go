package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// maxFailureNotes bounds the failure messages a report keeps; the count of
// failed ops is always exact.
const maxFailureNotes = 20

// metricValue is one reported metric with the number of samples behind it.
type metricValue struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// report accumulates one run's op accounting, metrics and output digest.
type report struct {
	attempted, failed int
	failures          []string
	metrics           []metricValue // the gated metrics of the final line
	extra             []metricValue // printed in the record only
	ops               map[string]int
	digest            hash.Hash64
}

func newReport() *report {
	return &report{ops: map[string]int{}, digest: fnv.New64a()}
}

// op counts one attempted op and, when err is non-nil, one failed op.
func (r *report) op(what string, err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, what+": "+err.Error())
	}
}

func (r *report) add(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metricValue{name, unit, value, samples})
}

func (r *report) addExtra(name, unit string, value float64, samples int) {
	r.extra = append(r.extra, metricValue{name, unit, value, samples})
}

// record folds an op's output into the run digest, so two runs of one seed
// can be compared output for output.
func (r *report) record(format string, args ...any) {
	fmt.Fprintf(r.digest, format+"\n", args...)
}

// addLatency reports the median of xs (milliseconds) under name, and the
// p90 in the record when at least ten samples lie beyond it.
func (r *report) addLatency(prefix string, xs []float64) {
	r.add(prefix+"_p50_ms", "ms", quantile(xs, 0.5), len(xs))
	if tailOK(len(xs), 90) {
		r.addExtra(prefix+"_p90_ms", "ms", quantile(xs, 0.9), len(xs))
	}
}

// envRecord describes the machine and build a run measured on.
type envRecord struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func environment() envRecord {
	return envRecord{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the VCS revision the binary was built from ("unknown"
// when built outside a git checkout), marked "+dirty" for modified trees.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// print writes the human-readable table, the JSON record line and, last,
// the JSON result line.
func (r *report) print(w io.Writer, cfg config) error {
	for _, m := range append(append([]metricValue(nil), r.metrics...), r.extra...) {
		fmt.Fprintf(w, "%-40s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
	}
	rec := struct {
		Workload  string         `json:"workload"`
		Seed      uint64         `json:"seed"`
		Seconds   int            `json:"seconds"`
		Trace     bool           `json:"trace"`
		Env       envRecord      `json:"env"`
		Ops       map[string]int `json:"ops"`
		Metrics   []metricValue  `json:"metrics"`
		Extra     []metricValue  `json:"extra,omitempty"`
		Digest    string         `json:"digest"`
		Failures  []string       `json:"failures,omitempty"`
		LayerMaps []layerMetric  `json:"layer_map,omitempty"`
	}{cfg.workload, cfg.seed, cfg.seconds, cfg.trace, environment(), r.ops, r.metrics, r.extra,
		fmt.Sprintf("%016x", r.digest.Sum64()), r.failures, nil}
	if cfg.trace {
		rec.LayerMaps = perLayer
	}
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err = json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailOK reports whether at least ten of n samples lie beyond the pct-th
// percentile — the smallest sample that supports reporting it.
func tailOK(n, pct int) bool {
	return n*(100-pct) >= 10*100
}
