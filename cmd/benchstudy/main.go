// Command benchstudy times the study harness sequentially (Workers=1)
// against the context-aware worker pool (Workers=GOMAXPROCS) on a small
// machine x application slice and emits the comparison as JSON, for the
// CI benchmark smoke job. The slice mirrors the -short test slice so the
// number is comparable across runs; it is a smoke signal, not a rigorous
// benchmark.
//
// Both runs are traced, and the report embeds the parallel run's
// per-phase aggregates, its robustness counters (retries, timeouts,
// skipped cells), and a run manifest, so BENCH_study.json trends stay
// attributable: a regression shows which phase moved and on what
// toolchain/host it was measured, and a nonzero retry count flags that
// the timing was taken on a re-executing run.
//
// The report also times one module-wide hpclint pass, with the
// interface-devirtualization share broken out as hpclint_iface_seconds;
// -lint-baseline compares the pass against a committed baseline report
// (BENCH_baseline.json) and fails when it exceeds twice the recorded
// hpclint_seconds, so analyzer cost cannot silently balloon.
//
// Usage:
//
//	benchstudy [-out BENCH_study.json] [-lint-baseline BENCH_baseline.json]
//	           [-cpuprofile f] [-memprofile f] [-tracefile f]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"hpcmetrics/internal/analysis"
	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/predictor"
	"hpcmetrics/internal/study"
)

type report struct {
	GOMAXPROCS        int      `json:"gomaxprocs"`
	Apps              []string `json:"apps"`
	Targets           []string `json:"targets"`
	SequentialSeconds float64  `json:"sequential_seconds"`
	ParallelSeconds   float64  `json:"parallel_seconds"`
	Speedup           float64  `json:"speedup"`
	// HpclintSeconds is the wall time of one module-wide hpclint pass
	// (load + type-check + all analyzers over HpclintPackages packages),
	// so analyzer cost is part of the perf trajectory alongside the study
	// itself. Zero when the module tree is not reachable from the cwd.
	// HpclintIfaceSeconds is the slice of that wall time spent collecting
	// interface-implementor facts for devirtualization, reported
	// separately so the resolution overhead is trendable on its own.
	HpclintSeconds      float64          `json:"hpclint_seconds,omitempty"`
	HpclintIfaceSeconds float64          `json:"hpclint_iface_seconds,omitempty"`
	HpclintPackages     int              `json:"hpclint_packages,omitempty"`
	Phases              []obs.PhaseStat  `json:"phases"`
	Counters            map[string]int64 `json:"counters,omitempty"`
	Manifest            obs.Manifest     `json:"manifest"`
}

// robustnessCounters extracts the retry/skip counters from a run's
// metrics snapshot so the bench report records whether the timed run
// was clean or re-executing work.
func robustnessCounters(snap obs.Snapshot) map[string]int64 {
	out := make(map[string]int64)
	for _, c := range snap.Counters {
		for _, prefix := range []string{"retry_", "faults_", "study_cells_", "study_checkpoint_"} {
			if strings.HasPrefix(c.Name, prefix) {
				out[c.Name] = c.Value
				break
			}
		}
	}
	return out
}

func main() {
	out := flag.String("out", "BENCH_study.json", "path for the JSON timing report")
	lintBaseline := flag.String("lint-baseline", "", "baseline report JSON; fail if the hpclint pass exceeds 2x its recorded hpclint_seconds")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile to this path")
	tracefile := flag.String("tracefile", "", "write a runtime/trace execution trace to this path")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("benchstudy: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("benchstudy: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			log.Fatalf("benchstudy: %v", err)
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			log.Fatalf("benchstudy: %v", err)
		}
		defer rtrace.Stop()
	}

	opts := study.Options{
		Apps:    []string{"avus-standard", "rfcth-standard"},
		Targets: []string{"ARL_Opteron", "MHPCC_P3"},
	}

	// Both runs are instrumented identically so the timing comparison
	// stays apples-to-apples (the enabled-tracer overhead is symmetric).
	seq, _, err := timeRun(opts, 1)
	if err != nil {
		log.Fatalf("benchstudy: sequential run: %v", err)
	}
	par, parObs, err := timeRun(opts, runtime.GOMAXPROCS(0))
	if err != nil {
		log.Fatalf("benchstudy: parallel run: %v", err)
	}

	manifest := obs.NewManifest()
	manifest.Seed = fmt.Sprintf("fnv1a-noise-amp=%g", predictor.NoiseAmplitude)
	manifest.Options = map[string]any{
		"apps":    opts.Apps,
		"targets": opts.Targets,
		"workers": runtime.GOMAXPROCS(0),
	}

	r := report{
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Apps:              opts.Apps,
		Targets:           opts.Targets,
		SequentialSeconds: seq.Seconds(),
		ParallelSeconds:   par.Seconds(),
		Speedup:           seq.Seconds() / par.Seconds(),
		Phases:            parObs.Tracer.PhaseStats(),
		Counters:          robustnessCounters(parObs.Metrics.Snapshot()),
		Manifest:          manifest,
	}

	// One module-wide hpclint pass, timed (the BenchmarkHpclintModule
	// counterpart for the JSON trend). Non-fatal: run from outside the
	// module tree there is nothing to analyze.
	lintStart := time.Now()
	if lintRes, err := analysis.Run([]string{"./..."}, analysis.All()); err != nil {
		log.Printf("benchstudy: hpclint timing skipped: %v", err)
	} else {
		r.HpclintSeconds = time.Since(lintStart).Seconds()
		r.HpclintIfaceSeconds = lintRes.IfaceSeconds
		r.HpclintPackages = lintRes.Packages
	}
	// The budget gate: against a committed baseline report, a module pass
	// slower than 2x the recorded wall time fails the run, so analyzer
	// cost (devirtualization included) cannot silently balloon.
	if *lintBaseline != "" && r.HpclintSeconds > 0 {
		base, err := readBaselineSeconds(*lintBaseline)
		if err != nil {
			log.Fatalf("benchstudy: reading -lint-baseline: %v", err)
		}
		if base > 0 && r.HpclintSeconds > 2*base {
			log.Fatalf("benchstudy: hpclint module pass took %.2fs, over the 2x budget against the %.2fs baseline in %s",
				r.HpclintSeconds, base, *lintBaseline)
		}
		fmt.Printf("hpclint budget ok: %.2fs within 2x of the %.2fs baseline\n", r.HpclintSeconds, base)
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatalf("benchstudy: %v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatalf("benchstudy: %v", err)
	}
	fmt.Printf("sequential %.1fs, parallel %.1fs (x%.2f on GOMAXPROCS=%d), hpclint %.1fs/%d pkgs; wrote %s\n",
		r.SequentialSeconds, r.ParallelSeconds, r.Speedup, r.GOMAXPROCS,
		r.HpclintSeconds, r.HpclintPackages, *out)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("benchstudy: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("benchstudy: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("benchstudy: %v", err)
		}
	}
}

// readBaselineSeconds pulls hpclint_seconds out of a previously written
// report (BENCH_baseline.json or an old BENCH_study.json).
func readBaselineSeconds(path string) (float64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var base struct {
		HpclintSeconds float64 `json:"hpclint_seconds"`
	}
	if err := json.Unmarshal(buf, &base); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if base.HpclintSeconds <= 0 {
		return 0, fmt.Errorf("%s: no hpclint_seconds recorded", path)
	}
	return base.HpclintSeconds, nil
}

func timeRun(opts study.Options, workers int) (time.Duration, *obs.Obs, error) {
	opts.Workers = workers
	opts.Obs = obs.New()
	start := time.Now()
	if _, err := study.Run(opts); err != nil {
		return 0, nil, err
	}
	return time.Since(start), opts.Obs, nil
}
