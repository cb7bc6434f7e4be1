// Command perfbench is Ivory's end-to-end benchmark. It drives three
// workloads against the shipped entry points — an ivoryd server under an
// open-loop request stream (serve), a coordinator fronting two worker
// replicas (cluster), and the ivory-exp reproduction run in fresh
// processes (reproduce) — checks every output, and prints the metrics
// BENCHMARK.json names. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, after building with perfbench/run.sh):
//
//	perfbench -workload serve|cluster|reproduce -seed N -seconds S -trace 0|1
//
// -trace 0 measures the end-to-end metrics with tracing off. -trace 1
// traces every other unit of work (request or process), prints the
// per-layer metrics, and reports the difference between the traced and
// untraced units' medians as the tracing overhead. Spans are kept in
// memory and written to -spans when the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// endToEnd and perLayer are the metric names and units BENCHMARK.json
// declares; every run prints all of one set (0 where a metric does not
// apply to the workload).
var endToEnd = map[string]string{
	"setup_s": "s",
	"p50_ms":  "ms",
	"tail_ms": "ms",
	"goodput": "share",
	"rss_mb":  "MB",
}

var perLayer = map[string]string{
	"trace.overhead_pct": "%",
	"error_share":        "share",
	"tail_pct":           "%",
	"samples":            "count",

	"serve.due":         "count",
	"serve.sent":        "count",
	"serve.succeeded":   "count",
	"serve.failed":      "count",
	"serve.shed":        "count",
	"serve.late_p50_ms": "ms",
	"serve.late_max_ms": "ms",
	"serve.offered_rps": "1/s",

	"server.handler_ms":      "ms",
	"server.transport_ms":    "ms",
	"server.render_us":       "us",
	"server.resp_bytes":      "bytes",
	"server.cache_hit_ratio": "share",
	"server.cache_lookups":   "count",
	"server.coalesced":       "count",
	"server.shed_share":      "share",
	"server.explore_ms":      "ms",
	"server.hybrid_ms":       "ms",
	"server.transient_ms":    "ms",

	"core.enum_merge_ms": "ms",
	"core.eval_ms":       "ms",
	"core.configs_per_s": "1/s",
	"core.evaluated":     "count",
	"core.pruned":        "count",
	"core.accept_ratio":  "share",
	"sc.eval_ms":         "ms",
	"buck.eval_ms":       "ms",
	"ldo.eval_ms":        "ms",
	"topology.hit_ratio": "share",
	"topology.lookups":   "count",

	"cluster.shards":      "count",
	"cluster.shard_ms":    "ms",
	"cluster.shard_bytes": "bytes",
	"cluster.coord_ms":    "ms",
	"cluster.retries":     "count",
	"cluster.speedup":     "x",

	"pds.cell_ms":           "ms",
	"pds.trace_hit_ratio":   "share",
	"pds.trace_lookups":     "count",
	"pds.trace_keys":        "count",
	"pds.late_new_keys":     "count",
	"soc.sweep_ms":          "ms",
	"soc.assignments_per_s": "1/s",

	"grid.cholesky": "count",
	"grid.cg":       "count",

	"runtime.alloc_mb": "MB",
	"runtime.gc_count": "count",

	"check.fig13_ivr_gain_pp": "pp",
	"check.fig7_max_err_pct":  "%",
	"check.fig8_max_err_pct":  "%",
}

func init() {
	for _, name := range experimentOrder {
		perLayer["exp."+name+"_ms"] = "ms"
	}
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	// invalid marks a run whose own measurement broke down (the open-loop
	// generator fell behind its bound); it is reported and never correct.
	invalid string
	// firstErr is the first output-check mismatch, for the report.
	firstErr error
	e2e      map[string]float64
	layer    map[string]float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts one failed unit and remembers the first cause.
func (r *result) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// Paths, relative to the repository root the benchmark runs from; run.sh
// builds into buildDir.
const (
	buildDir = ".bench_build"
	ivoryExp = buildDir + "/ivory-exp"
	spansDir = buildDir + "/spans"
	tmpDir   = buildDir + "/tmp"
	pinsPath = "perfbench/pins.json"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var o options
	var traceFlag int
	var childDir string
	var pin bool
	flag.StringVar(&o.workload, "workload", "", "serve | cluster | reproduce")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 12, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&childDir, "child-exp", "", "internal: run every experiment traced, writing CSVs to this directory")
	flag.BoolVar(&pin, "pin", false, "regenerate the pinned digests in "+pinsPath+" and exit")
	flag.Parse()
	o.trace = traceFlag == 1
	if childDir != "" {
		if err := childExperiments(childDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if pin {
		if err := writePins(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench -pin:", err)
			os.Exit(1)
		}
		return
	}
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	run := map[string]func(options) (*result, error){
		"serve":     runServe,
		"cluster":   runCluster,
		"reproduce": runReproduce,
	}[o.workload]
	if run == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (serve, cluster, reproduce)\n", o.workload)
		os.Exit(2)
	}
	start := time.Now()
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(o, res, time.Since(start))
}

// printResult prints every metric by name with its unit, then the JSON line.
func printResult(o options, r *result, wall time.Duration) {
	set, vals := endToEnd, r.e2e
	if o.trace {
		set, vals = perLayer, r.layer
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	out.Correct = r.failed == 0 && r.invalid == "" && r.attempted > 0
	r.layer["error_share"] = ratio(float64(r.failed), float64(r.attempted))
	fmt.Printf("workload %s seed %d seconds %d trace %v wall %.1fs\n", o.workload, o.seed, o.seconds, o.trace, wall.Seconds())
	for _, n := range names {
		fmt.Printf("  %-26s %14.6g %s\n", n, vals[n], set[n])
		out.Metrics[n] = metric{Value: vals[n], Unit: set[n]}
	}
	fmt.Printf("attempted %d failed %d\n", r.attempted, r.failed)
	if r.firstErr != nil {
		fmt.Printf("FIRST OUTPUT-CHECK FAILURE: %v\n", r.firstErr)
	}
	if r.invalid != "" {
		fmt.Printf("RUN INVALID (not scored): %s\n", r.invalid)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// latencyMetrics fills p50_ms, tail_ms and the tail's percentile and
// sample count from per-unit latencies in ms.
func latencyMetrics(r *result, lat []float64) {
	p, v, _ := tail(lat)
	r.e2e["p50_ms"] = median(lat)
	r.e2e["tail_ms"] = v
	r.layer["tail_pct"] = p
	r.layer["samples"] = float64(len(lat))
	fmt.Printf("latency: p50 %.3f ms, tail p%g %.3f ms over %d samples\n", median(lat), p, v, len(lat))
}
