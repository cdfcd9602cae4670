// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload for a fixed measuring time, checks the
// program's outputs against independent computations, and prints one
// JSON result line:
//
//	perfbench --workload bng-serve --seed 3 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run times every layer's public calls from this
// benchmark's own code, reports the per-layer metrics, and writes its
// spans to .bench_build/trace/. README.md explains the workloads, the
// metrics, and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics every untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"events_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run reports. A layer the
// workload never calls reads 0 there.
var perLayer = []metricDef{
	// paper-batch
	{"isp.run_ms", "ms"},
	{"atlas.fleet_ms", "ms"},
	{"atlas.sanitize_ms", "ms"},
	{"core.analyze_ms", "ms"},
	{"cdn.generate_ms", "ms"},
	{"cdn.episodes_ms", "ms"},
	{"experiments.run_ms", "ms"},
	{"experiments.zmapbias_ms", "ms"},
	{"isp.alloc_mb", "MB"},
	{"core.alloc_mb", "MB"},
	// cdn-stream
	{"stream.generate_ms", "ms"},
	{"stream.analyze_ms", "ms"},
	{"cdn.scan_csv_ms", "ms"},
	{"stream.codec_ms", "ms"},
	{"sketch.fold_ms", "ms"},
	{"stream.spill_mb", "MB"},
	{"stream.alloc_mb", "MB"},
	// bng-churn and bng-serve
	{"bng.round_ms", "ms"},
	{"bng.round_alloc_mb", "MB"},
	{"stripe.put_ns", "ns"},
	{"stripe.get_ns", "ns"},
	{"dhcp4.handle_ns", "ns"},
	{"dhcp6.handle_ns", "ns"},
	{"radius.handle_ns", "ns"},
	{"stripe.snapshot_ms", "ms"},
	{"stripe.hash_ms", "ms"},
	{"sketch.merge_ms", "ms"},
	{"sketch.encode_ms", "ms"},
	{"bng.stats_encode_ms", "ms"},
	{"bng.http_stats_ms", "ms"},
	{"bng.http_ha_ms", "ms"},
	{"bng.http_snapshot_ms", "ms"},
	{"bng.http_sketch_ms", "ms"},
	{"bng.http_query_ms", "ms"},
	{"bng.http_sessions_ms", "ms"},
	{"bng.reader_lag_ms", "ms"},
}

// run is one invocation's settings.
type run struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Work is a scratch directory inside the checkout; it is removed
	// when the run ends.
	Work string
	Size sizes
}

// outcome is what a workload hands back to the harness.
type outcome struct {
	Attempted, Failed int64
	// Problems lists every failed output check.
	Problems []string
	// Metrics holds end-to-end values (untraced) or per-layer values
	// (traced), by name.
	Metrics map[string]float64
	// Untraced and Traced are a traced run's own end-to-end figures for
	// the same work done once without and once with tracing.
	Untraced, Traced map[string]float64
	// Diag holds an untraced run's diagnostic figures, printed beside
	// the result but not part of it.
	Diag map[string]float64
	tr   *tracer
}

func (o *outcome) fail(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(r run) (*outcome, error){
	"paper-batch": runPaper,
	"cdn-stream":  runCDNStream,
	"bng-churn":   runBNGChurn,
	"bng-serve":   runBNGServe,
}

func main() {
	workload := flag.String("workload", "", "workload: paper-batch, cdn-stream, bng-churn or bng-serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "measuring time of the run")
	trace := flag.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	// The program's own fan-out is one worker everywhere; two Go threads
	// leave the bng-serve reader a processor of its own on any machine.
	runtime.GOMAXPROCS(2)
	work, err := makeWorkDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := run{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Work: work, Size: fullSize()}
	out, err := r.measure()
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.Trace {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", r.Workload, r.Seed))
		extra := map[string]any{"workload": r.Workload, "seed": r.Seed,
			"untraced": out.Untraced, "traced": out.Traced, "per_layer": out.Metrics}
		if err := out.tr.write(path, extra); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			os.Exit(1)
		}
		overhead, _ := json.Marshal(map[string]any{"untraced": out.Untraced, "traced": out.Traced})
		fmt.Printf("end-to-end without and with tracing: %s\n", overhead)
	}
	if out.Diag != nil {
		diag, _ := json.Marshal(out.Diag)
		fmt.Printf("diagnostics: %s\n", diag)
	}
	line, err := resultLine(out, r.Trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if len(out.Problems) > 0 {
		for _, p := range out.Problems {
			fmt.Fprintln(os.Stderr, "check failed:", p)
		}
		os.Exit(1)
	}
}

// resultLine renders the final JSON object. Every metric of the mode's
// list is present; a metric the workload failed to produce is an error
// (traced runs report 0 for layers the workload does not call).
func resultLine(out *outcome, traced bool) (string, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := out.Metrics[d.Name]
		if traced && !ok {
			v, ok = 0, true
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", fmt.Errorf("no value for %s", strings.Join(missing, ", "))
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(out.Problems) == 0, out.Attempted, out.Failed, metrics})
	return string(b), err
}

// makeWorkDir creates the run's scratch directory under .bench_build,
// which lies inside the checkout the benchmark runs from.
func makeWorkDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "work-")
}

// measure runs the workload on this goroutine, pinned to one OS thread
// so that the thread's CPU clock, a diagnostic, covers every pass and
// set-up.
func (r run) measure() (*outcome, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	return workloads[r.Workload](r)
}

// setups is how many times the run sets up: several untraced, so
// setup_s is a median, and once traced.
func (r run) setups() int {
	if r.Trace {
		return 1
	}
	return r.Size.Setups
}

// setEndToEnd records a run's end-to-end metrics: the median set-up,
// the per-pass medians, the median over read blocks of each block's
// median read, and the peak RSS. The median wall time and thread CPU
// time per pass, the fastest and slowest pass, the same medians over
// blocks of each block's 90th and 95th percentile read, and the 99th
// percentile of all reads are kept as diagnostics: on a shared host
// they spread past any usable bound (README.md, "Reads").
func (o *outcome) setEndToEnd(setup float64, cs costs, events []float64, blocks [][]float64, rss float64) {
	var p50, p90, p95, all []float64
	for _, b := range blocks {
		p50 = append(p50, quantile(b, 0.50))
		p90 = append(p90, quantile(b, 0.90))
		p95 = append(p95, quantile(b, 0.95))
		all = append(all, b...)
	}
	o.Metrics = map[string]float64{
		"setup_s":      setup,
		"wall_s":       cs.median(timeOf),
		"cpu_s":        cs.median(cpuOf),
		"alloc_mb":     cs.median(allocOf),
		"events_per_s": median(events),
		"read_p50_ms":  median(p50),
		"peak_rss_mb":  rss,
	}
	times := make([]float64, len(cs))
	for i, c := range cs {
		times[i] = c.Time
	}
	o.Diag = map[string]float64{
		"raw_wall_s": cs.median(wallOf), "thread_cpu_s": cs.median(threadOf),
		"wall_min_s": slices.Min(times), "wall_max_s": slices.Max(times),
		"reads": float64(len(all)), "read_p90_ms": median(p90), "read_p95_ms": median(p95),
		"read_p99_ms": quantile(all, 0.99),
	}
}

// costFigures renders one phase's cost with end-to-end metric names.
func costFigures(c cost) map[string]float64 {
	return map[string]float64{"wall_s": c.Time, "raw_wall_s": c.Wall, "thread_cpu_s": c.Thread, "cpu_s": c.CPU, "alloc_mb": c.Alloc}
}

// passes is how many timed passes a run makes: its measuring time over
// the workload's nominal pass length, rounded up, and at least
// MinIters. The count depends only on the arguments, so every run with
// the same --seconds attempts the same operations.
func (r run) passes(nominal float64) int {
	return max(r.Size.MinIters, int(math.Ceil(r.Seconds/nominal)))
}
