// Command qkbench is the repository's end-to-end benchmark. One invocation
// runs one workload for a fixed time and prints, as its last line, a JSON
// object with the metrics it measured:
//
//	bash qkbench/run.sh --workload train-sim --seed 1 --seconds 45 --trace 0
//
// run from the repository root; it builds into .bench_build/ first.
// Workloads:
//
//   - train-sim: cold Fit + Predict at the Fig. 5 shape, where bond
//     dimension is high and the MPS simulator and truncated SVD dominate.
//   - train-gram: cold Fit + Predict at the Fig. 8 shape, where χ ≤ 4 and
//     the O(N²) overlap fill dominates, over two simulated ranks.
//   - serve-open: seeded Poisson arrivals into the serving router, half
//     of them repeated rows that the state cache can answer.
//
// With --trace 0 it reports the end-to-end metrics, measured without any
// tracing. With --trace 1 it runs the same workload with spans recorded by
// this program around its calls into each module, reads the counters those
// modules expose, and reports the per-layer metrics. README.md lists every
// metric, which layer metric should move which end-to-end metric, and why
// each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// e2eUnits are the end-to-end metrics every --trace 0 run reports.
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"alloc_mib":      "MiB",
	"latency_p50_ms": "ms",
	"goodput_rps":    "1/s",
}

// layerUnits are the per-layer metrics every --trace 1 run reports. A layer
// a workload does not reach reports 0.
var layerUnits = map[string]string{
	"linalg.svd_calls":              "count",
	"linalg.svd_s":                  "s",
	"linalg.matmul_calls":           "count",
	"linalg.matmul_s":               "s",
	"mps.states":                    "count",
	"mps.state_ms_p50":              "ms",
	"mps.state_ms_max":              "ms",
	"mps.max_chi":                   "count",
	"mps.row_chi_min":               "count",
	"mps.trunc_err_max":             "1",
	"mps.self_s":                    "s",
	"kernel.overlaps":               "count",
	"kernel.overlap_s":              "s",
	"kernel.overlap_us_per_pair":    "us",
	"statecache.hits":               "count",
	"statecache.misses":             "count",
	"statecache.hit_ratio":          "1",
	"statecache.compute_s":          "s",
	"statecache.wait_s":             "s",
	"statecache.evictions":          "count",
	"dist.sim_s":                    "s",
	"dist.inner_s":                  "s",
	"dist.comm_s":                   "s",
	"dist.messages":                 "count",
	"dist.bytes":                    "B",
	"dist.rank_imbalance":           "1",
	"dist.recovered_rows":           "count",
	"svm.train_s":                   "s",
	"svm.support_vectors":           "count",
	"svm.test_auc":                  "1",
	"persist.save_s":                "s",
	"persist.load_s":                "s",
	"persist.model_mib":             "MiB",
	"serve.batches":                 "count",
	"serve.rows_per_batch":          "count",
	"serve.queue_wait_ms_p50":       "ms",
	"serve.queue_wait_ms_p99":       "ms",
	"serve.predict_s":               "s",
	"serve.rejected":                "count",
	"http.request_ms_p50":           "ms",
	"http.overhead_ms_p50":          "ms",
	"gen.late_ms_p99":               "ms",
	"trace.overhead_frac":           "1",
	"share.sim_of_fit":              "1",
	"share.overlap_of_fit":          "1",
	"share.hot_rows":                "1",
	"share.sim_plus_overlap_of_fit": "1",
}

// run carries one invocation's settings.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
}

// report is what a workload hands back: its metric values plus the
// operation tally. Human-readable detail is printed as the workload goes.
type report struct {
	metrics map[string]float64
	// ungated are end-to-end figures a --trace 0 run measures and prints but
	// leaves out of the result line: on a shared 2-vCPU machine their
	// run-to-run spread exceeded the widest bound allowed (see README.md).
	ungated   map[string]float64
	attempted int
	failed    int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(run) (report, error){
	"train-sim":  trainSim,
	"train-gram": trainGram,
	"serve-open": serveOpen,
}

func main() {
	name := flag.String("workload", "", "workload to run: train-sim, train-gram or serve-open")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 45, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "qkbench: need --workload train-sim|train-gram|serve-open, --seconds ≥ 1 and --trace 0|1\n")
		os.Exit(2)
	}
	r := run{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1}
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d go=%s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("workload %s seed=%d seconds=%d trace=%d\n", r.workload, r.seed, *seconds, *traceFlag)
	rep, err := w(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qkbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	units, required := e2eUnits, true
	if r.traced {
		units, required = layerUnits, false
	}
	res, err := assemble(rep, units, required)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qkbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	printTable(res.Metrics)
	for _, name := range sortedKeys(rep.ungated) {
		fmt.Printf("  %-30s %14.6g (not gated)\n", name, rep.ungated[name])
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qkbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "qkbench: %s: %d of %d operations failed their checks\n", r.workload, res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// assemble checks that the report carries only metrics of units, each a
// finite number under a valid name, and builds the result line. When
// required is set every metric of units must be present; otherwise (the
// per-layer set) a metric a workload does not reach is reported as 0.
func assemble(rep report, units map[string]string, required bool) (result, error) {
	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	for name, v := range rep.metrics {
		if _, ok := units[name]; !ok {
			return res, fmt.Errorf("metric %q is not declared", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %q is %v", name, v)
		}
	}
	for name, unit := range units {
		if !metricName.MatchString(name) {
			return res, fmt.Errorf("metric name %q is malformed", name)
		}
		v, ok := rep.metrics[name]
		if !ok && required {
			return res, fmt.Errorf("end-to-end metric %q was not measured", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	return res, nil
}

func printTable(ms map[string]metric) {
	for _, n := range sortedKeys(ms) {
		fmt.Printf("  %-30s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
