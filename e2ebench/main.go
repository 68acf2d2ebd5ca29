// Command e2ebench is the repository benchmark. It runs one named
// workload against the system from outside — through the module's public
// functions, the built cmd/predictd binary and that binary's HTTP
// endpoints — checks every output it gets back, and prints one JSON
// result line. README.md in this directory explains the workloads and
// what each metric should move.
//
//	e2ebench --workload study-apps --seed 1 --seconds 30 --trace 0 \
//	    --predictd .bench_build/bin/predictd --out .bench_build
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// no tracing; with --trace 1 it holds the per-layer metrics, including
// the layer split of a traced replay of the workload's grid.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names (a test checks they agree).
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (README.md gives each one's meaning per workload).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"study_s", "s"},
	{"fill_s", "s"},
	{"predict_p50_ms", "ms"},
	{"rank_p50_ms", "ms"},
}

// perLayer are the single-layer diagnostics of a --trace 1 run. A layer
// a workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"memsim.unit_ns_per_ref", "ns"},
	{"memsim.random_ns_per_ref", "ns"},
	{"access.gen_ns_per_ref", "ns"},
	{"access.detect_ns_per_ref", "ns"},
	{"probes.measure_s", "s"},
	{"probes.calls", "count"},
	{"probes.self_s", "s"},
	{"probes.self_share", "frac"},
	{"trace.collect_s", "s"},
	{"trace.calls", "count"},
	{"trace.self_s", "s"},
	{"trace.self_share", "frac"},
	{"simexec.execute_s", "s"},
	{"simexec.calls", "count"},
	{"simexec.too_large", "count"},
	{"simexec.self_s", "s"},
	{"simexec.self_share", "frac"},
	{"metrics.predict_us", "us"},
	{"metrics.calls", "count"},
	{"replay.s", "s"},
	{"replay.trace_overhead", "frac"},
	{"persist.records", "count"},
	{"persist.journal_bytes", "bytes"},
	{"persist.resume_s", "s"},
	{"predictor.hit_ratio.probes", "frac"},
	{"predictor.hit_ratio.cells", "frac"},
	{"predictor.hit_ratio.predictions", "frac"},
	{"predictor.misses", "count"},
	{"predictor.coalesced", "count"},
	{"predictd.predict_p99_ms", "ms"},
	{"predictd.rank_p99_ms", "ms"},
	{"predictd.hot_rps", "1/s"},
	{"predictd.heap_mb", "MB"},
	{"predictd.shed", "count"},
	{"study.cpu_s", "s"},
	{"study.parallel_eff", "frac"},
	{"study.peak_rss_mb", "MB"},
	{"fail_frac", "frac"},
}

// env is one run's configuration.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	predictd string // path of the built cmd/predictd binary
	out      string // scratch directory for journals, ready files, spans
}

// tally counts checked operations. Every output the benchmark checks is
// one attempt; a wrong or missing answer is one failure.
type tally struct {
	attempted, failed int64
	shown             int
}

// check records one checked operation; a non-nil err marks it failed.
// The first few failures are described on standard error.
func (t *tally) check(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.shown < 10 {
		t.shown++
		fmt.Fprintf(os.Stderr, "e2ebench: check failed: %v\n", err)
	}
}

// report is what a workload measured: metric values by name plus the
// correctness tally.
type report struct {
	values map[string]float64
	tally
}

func newReport() *report { return &report{values: map[string]float64{}} }

// failFrac is the failed share of checked operations.
func (r *report) failFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

type workloadFunc func(ctx context.Context, e env, r *report) error

var workloads = map[string]workloadFunc{
	"study-probes":   runStudy,
	"study-apps":     runStudy,
	"predictd-mixed": runPredictd,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result selects the metrics of the run's mode; a spec the workload left
// unmeasured is a benchmark bug, reported as an error.
func (r *report) result(specs []metricSpec) (resultLine, error) {
	line := resultLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := r.values[s.Name]
		if !ok {
			return line, fmt.Errorf("metric %s was not measured", s.Name)
		}
		line.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return line, nil
}

func main() {
	var (
		e       env
		seconds int
		trace   int
		record  bool
		setup   bool
	)
	flag.StringVar(&e.workload, "workload", "", "workload name ("+workloadNames()+")")
	flag.Int64Var(&e.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 30, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&e.predictd, "predictd", "", "path of the built cmd/predictd binary")
	flag.StringVar(&e.out, "out", ".bench_build", "directory for journals, ready files and span logs")
	flag.BoolVar(&record, "record-golden", false, "run the study workload once and rewrite its golden file instead of checking it")
	flag.BoolVar(&setup, "setup-only", false, "prepare the workload and exit (the child process timed by setup_s)")
	flag.Parse()
	e.seconds = time.Duration(seconds) * time.Second
	e.trace = trace == 1

	run, ok := workloads[e.workload]
	switch {
	case !ok:
		fail(2, "unknown workload %q (have %s)", e.workload, workloadNames())
	case seconds < 1:
		fail(2, "--seconds must be at least 1")
	case trace != 0 && trace != 1:
		fail(2, "--trace must be 0 or 1")
	}
	if setup {
		if err := setupOnly(e); err != nil {
			fail(1, "%v", err)
		}
		return
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		fail(1, "%v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if record {
		if err := recordGolden(ctx, e); err != nil {
			fail(1, "%v", err)
		}
		return
	}
	r := newReport()
	if err := run(ctx, e, r); err != nil {
		fail(1, "%s: %v", e.workload, err)
	}
	specs := endToEnd
	if e.trace {
		specs = perLayer
	}
	line, err := r.result(specs)
	if err != nil {
		fail(1, "%s: %v", e.workload, err)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fail(1, "%v", err)
	}
	fmt.Println(string(b))
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	b, _ := json.Marshal(names) // a []string always marshals
	return string(b)
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(code)
}

// median returns the middle of xs (the mean of the two middles for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the q-quantile of xs by the nearest-rank rule; xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// scratchPath returns a path under the run's scratch directory, creating
// the directory.
func (e env) scratchPath(name string) (string, error) {
	dir := filepath.Join(e.out, "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, name), nil
}
