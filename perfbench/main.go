// Command perfbench is the repository benchmark: it runs one workload of the
// CardNet serving and refresh paths, checks every output it receives, and
// prints each metric by name with its unit, ending with one JSON result line.
//
// Run it through run.sh from the repository root, which builds the cardnet
// server and this program from source:
//
//	bash perfbench/run.sh --workload sparse --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run that
// reports the per-layer ledger. README.md describes every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricSpec names one reported metric; the lists below are the ones
// BENCHMARK.json declares (a test keeps the two in step).
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are reported with tracing off, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"mem_peak_mb", "MB", "lower"},
	{"qerror_mean", "ratio", "lower"},
	{"qerror_p90", "ratio", "lower"},
}

// perLayer are reported by the traced run, on every workload; a layer that
// does no timed work on a workload reads 0 there.
var perLayer = []metricSpec{
	{"http.rtt_floor_us", "us", "lower"},
	{"http.client_overhead_us", "us", "lower"},
	{"http.admission_us", "us", "lower"},
	{"http.write_us", "us", "lower"},
	{"serving.cache_us", "us", "lower"},
	{"serving.queue_wait_us", "us", "lower"},
	{"serving.queue_wait_p99_us", "us", "lower"},
	{"serving.batch_form_us", "us", "lower"},
	{"serving.forward_us", "us", "lower"},
	{"serving.forward_per_row_us", "us", "lower"},
	{"serving.batch_size_mean", "rows", "higher"},
	{"serving.flush_deadline_share", "ratio", "lower"},
	{"serving.flush_size_share", "ratio", "higher"},
	{"serving.cache_hit_ratio", "ratio", "higher"},
	{"serving.rejected_share", "ratio", "lower"},
	{"serving.swap_ms", "ms", "lower"},
	{"core.forward_b1_us", "us", "lower"},
	{"core.forward_b32_us", "us", "lower"},
	{"core.forward_floor_b32_us", "us", "lower"},
	{"core.forward_per_curve_us", "us", "lower"},
	{"core.train_epoch_ms", "ms", "lower"},
	{"train_s", "s", "lower"},
	{"core.incremental_s", "s", "lower"},
	{"infer.forward_b1_us", "us", "lower"},
	{"infer.forward_b32_us", "us", "lower"},
	{"infer.compile_ms", "ms", "lower"},
	{"tensor.abt_gflops", "GFLOP/s", "higher"},
	{"feature.encode_us", "us", "lower"},
	{"simselect.label_s", "s", "lower"},
	{"checkpoint.save_ms", "ms", "lower"},
	{"checkpoint.load_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"ledger.coverage_pct", "%", "higher"},
	{"generator.late_p99_ms", "ms", "lower"},
	{"generator.warmup_s", "s", "lower"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	cardnet string // path of the built cardnet binary (sparse only)
	dir     string // scratch directory inside the checkout, removed at exit
}

var workloads = map[string]func(runConfig) (*report, error){
	"sparse":  runSparse,
	"peak":    runPeak,
	"refresh": runRefresh,
}

// report collects one run's metrics, printed-only figures and failed checks.
type report struct {
	metrics   map[string]float64
	notes     map[string]string // per-metric context, such as a ratio's base
	extra     []string          // printed-only lines
	attempted int
	failed    int
	errs      []string // failed correctness checks
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, notes: map[string]string{}}
}

// set records a metric, with an optional note printed beside it.
func (r *report) set(name string, v float64, note ...string) {
	r.metrics[name] = v
	if len(note) > 0 {
		r.notes[name] = strings.Join(note, " ")
	}
}

// info records a printed-only line.
func (r *report) info(format string, args ...any) {
	r.extra = append(r.extra, fmt.Sprintf(format, args...))
}

// check records a failed correctness check unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "sparse | peak | refresh")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "measurement time of the run")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	cardnet := flag.String("cardnet", "", "path of the built cardnet server binary")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's scratch files")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload sparse|peak|refresh, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	os.Exit(runMain(*workload, run, runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, cardnet: *cardnet}, *workdir))
}

func runMain(name string, run func(runConfig) (*report, error), cfg runConfig, workdir string) int {
	runtime.GOMAXPROCS(runtime.NumCPU())
	dir, err := os.MkdirTemp(workdir, "run-"+name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir

	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("host: %s\n", hostFingerprint())
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}

	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	out := resultLine{Correct: len(rep.errs) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]resultValue{}}
	for _, s := range specs {
		v, ok := rep.metrics[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured (%v)\n", name, s.Name, v)
			return 1
		}
		out.Metrics[s.Name] = resultValue{Value: v, Unit: s.Unit}
	}
	if out.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation attempted\n", name)
		return 1
	}

	printReport(rep, specs)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// printReport prints the reported metrics with units and notes, then every
// other measured figure, then failed checks.
func printReport(rep *report, specs []metricSpec) {
	shown := map[string]bool{}
	for _, s := range specs {
		fmt.Printf("metric %-30s %14.6g %-8s %s\n", s.Name, rep.metrics[s.Name], s.Unit, rep.notes[s.Name])
		shown[s.Name] = true
	}
	units := map[string]string{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		units[s.Name] = s.Unit
	}
	var rest []string
	for k := range rep.metrics {
		if !shown[k] && units[k] != "" {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	for _, k := range rest {
		fmt.Printf("also   %-30s %14.6g %-8s %s\n", k, rep.metrics[k], units[k], rep.notes[k])
	}
	for _, l := range rep.extra {
		fmt.Println(l)
	}
	fmt.Printf("attempted %d  failed %d  failed_share %.6g (base: %d attempts)\n",
		rep.attempted, rep.failed, float64(rep.failed)/math.Max(1, float64(rep.attempted)), rep.attempted)
	for _, e := range rep.errs {
		fmt.Printf("CHECK FAILED: %s\n", e)
	}
}

// path joins a file name under the run directory.
func (c runConfig) path(name string) string { return filepath.Join(c.dir, name) }
