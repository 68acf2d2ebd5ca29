package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"syscall"
	"time"

	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/metrics"
	"hpcmetrics/internal/persist"
	"hpcmetrics/internal/predictor"
	"hpcmetrics/internal/study"
)

// studyGrids are the two study slices. Both are fixed inputs: the seed
// does not change them, so their outputs can be pinned bit for bit.
var studyGrids = map[string]study.Options{
	// One app (3 cells) over the base and all ten targets: eleven probe
	// suites dominate, and three machine groups share a cache geometry.
	"study-probes": {Apps: []string{"hycom-standard"}},
	// All five apps (15 cells) on one target: tracing and execution
	// dominate, over only two cache geometries.
	"study-apps": {Targets: []string{"ARL_Opteron"}},
}

// studyOptions is the workload's study.Options: its grid, a worker per
// CPU, and checkpoint journaling into the run's scratch directory.
func studyOptions(e env) (study.Options, error) {
	opts, ok := studyGrids[e.workload]
	if !ok {
		return study.Options{}, fmt.Errorf("%s is not a study workload", e.workload)
	}
	journal, err := e.scratchPath(e.workload + ".ckpt")
	if err != nil {
		return study.Options{}, err
	}
	opts.Workers = runtime.NumCPU()
	opts.CheckpointPath = journal
	return opts, nil
}

// setupOnly is the child process setup_s times for a study workload:
// process start, package initialisation and the options the first study
// call takes. The predictd workload times its own server start instead.
func setupOnly(e env) error {
	if _, ok := studyGrids[e.workload]; !ok {
		return nil
	}
	_, err := studyOptions(e)
	return err
}

// setupRuns is how many times a study run sets up, half before the study
// and half after it, so one stall of the machine cannot move the median
// that setup_s reports.
const setupRuns = 8

// timeSetupChildren runs the setup-only child n times and returns the
// wall times from spawn to exit.
func timeSetupChildren(ctx context.Context, e env, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	walls := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, self, "--setup-only", "--workload", e.workload, "--out", e.out)
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("setup child: %w", err)
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return walls, nil
}

// studyRun is one timed, fresh study.Run.
type studyRun struct {
	res  *study.Results
	wall float64 // seconds
	cpu  float64 // process CPU seconds spent during the run
}

func runFreshStudy(ctx context.Context, opts study.Options) (studyRun, error) {
	if err := os.Remove(opts.CheckpointPath); err != nil && !os.IsNotExist(err) {
		return studyRun{}, err
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	res, err := study.RunContext(ctx, opts)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return studyRun{}, err
	}
	return studyRun{res: res, wall: wall, cpu: cpuSeconds() - cpu0}, nil
}

// Each short timed phase (resumes, warm queries) repeats for at least
// minPhaseRuns rounds and minPhase of wall time, so one stall or
// collector cycle cannot move its median.
const (
	minPhaseRuns = 20
	minPhase     = time.Second
)

// settle finishes a garbage-collection cycle, so a short timed phase
// does not start in the middle of collecting the study's garbage.
func settle() { runtime.GC() }

// timeResumes re-runs the study from the journal it just wrote,
// checking each result against the golden digest, and returns the
// median wall time.
func timeResumes(ctx context.Context, opts study.Options, want digest, r *report) (float64, error) {
	opts.Resume = true
	var walls []float64
	settle()
	start := time.Now()
	for i := 0; i < minPhaseRuns || time.Since(start) < minPhase; i++ {
		t0 := time.Now()
		res, err := study.RunContext(ctx, opts)
		if err != nil {
			return 0, fmt.Errorf("resume: %w", err)
		}
		walls = append(walls, time.Since(t0).Seconds())
		compare(digestOf(res), want, &r.tally)
	}
	return median(walls), nil
}

func runStudy(ctx context.Context, e env, r *report) error {
	opts, err := studyOptions(e)
	if err != nil {
		return err
	}
	want, err := loadGolden(e.workload)
	if err != nil {
		return err
	}
	if e.trace {
		return traceStudy(ctx, e, opts, want, r)
	}

	setups, err := timeSetupChildren(ctx, e, setupRuns/2)
	if err != nil {
		return err
	}

	// Repeat the study while another run fits in the window; at least
	// one runs however long it takes.
	var (
		walls []float64
		last  studyRun
	)
	start := time.Now()
	for {
		last, err = runFreshStudy(ctx, opts)
		if err != nil {
			return err
		}
		compare(digestOf(last.res), want, &r.tally)
		walls = append(walls, last.wall)
		fmt.Fprintf(os.Stderr, "e2ebench: %s study.Run: wall %.2f s, cpu %.2f s\n", e.workload, last.wall, last.cpu)
		if time.Since(start)+time.Duration(last.wall*float64(time.Second)) > e.seconds {
			break
		}
	}
	r.values["study_s"] = median(walls)

	fill, err := timeResumes(ctx, opts, want, r)
	if err != nil {
		return err
	}
	r.values["fill_s"] = fill

	predictP50, rankP50, err := warmQueries(ctx, last.res, &r.tally)
	if err != nil {
		return err
	}
	r.values["predict_p50_ms"] = predictP50
	r.values["rank_p50_ms"] = rankP50

	more, err := timeSetupChildren(ctx, e, setupRuns-setupRuns/2)
	if err != nil {
		return err
	}
	r.values["setup_s"] = median(append(setups, more...))
	return nil
}

// warmQueries answers the study's grid again from its warm state — the
// probe results, traces and base times the study computed — through
// predictor.Engine.PredictMetric, the call predictd makes on a
// prediction-cache miss. A "predict" is one (cell, target, metric); a
// "rank" predicts one (cell, metric) on every target and sorts them.
// Every answer must equal the study's prediction bit for bit. It returns
// the median predict and rank latencies in milliseconds.
func warmQueries(ctx context.Context, res *study.Results, t *tally) (predictMs, rankMs float64, err error) {
	type cellMetric struct {
		key study.Key
		m   int
	}
	want := map[cellMetric]map[string]float64{}
	var order []cellMetric
	for _, p := range res.Predictions {
		cm := cellMetric{p.Key, p.MetricID}
		if want[cm] == nil {
			want[cm] = map[string]float64{}
			order = append(order, cm)
		}
		want[cm][p.Machine] = p.Predicted
	}
	all := metrics.All()
	byID := func(id int) metrics.Metric { return all[id-1] }
	var eng predictor.Engine
	predict := func(cm cellMetric, target string) (float64, error) {
		return eng.PredictMetric(ctx, byID(cm.m), metrics.Context{
			Trace:       res.Traces[cm.key],
			Base:        res.Probes[res.BaseName],
			Target:      res.Probes[target],
			BaseSeconds: res.BaseTimes[cm.key],
		})
	}
	checkBits := func(cm cellMetric, target string, got float64) error {
		if math.Float64bits(got) != math.Float64bits(want[cm][target]) {
			return fmt.Errorf("warm predict %s metric %d on %s: got %s, study has %s",
				cm.key, cm.m, target, bits(got), bits(want[cm][target]))
		}
		return nil
	}

	var predictLat, rankLat []float64
	settle()
	start := time.Now()
	for pass := 0; pass < minPhaseRuns || time.Since(start) < minPhase; pass++ {
		for _, p := range res.Predictions {
			cm := cellMetric{p.Key, p.MetricID}
			t0 := time.Now()
			v, err := predict(cm, p.Machine)
			predictLat = append(predictLat, msSince(t0))
			if err != nil {
				return 0, 0, err
			}
			t.check(checkBits(cm, p.Machine, v))
		}
		for _, cm := range order {
			type entry struct {
				name string
				v    float64
			}
			t0 := time.Now()
			entries := make([]entry, 0, len(res.TargetNames))
			for _, name := range res.TargetNames {
				v, err := predict(cm, name)
				if err != nil {
					return 0, 0, err
				}
				entries = append(entries, entry{name, v})
			}
			sort.SliceStable(entries, func(i, j int) bool { return entries[i].v < entries[j].v })
			rankLat = append(rankLat, msSince(t0))
			for _, en := range entries {
				t.check(checkBits(cm, en.name, en.v))
			}
		}
	}
	return median(predictLat), median(rankLat), nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// traceStudy is the --trace 1 run of a study workload: layer
// micro-timings, one untraced study for the study and persist layers,
// then the traced replay of the same grid.
func traceStudy(ctx context.Context, e env, opts study.Options, want digest, r *report) error {
	if err := microTimings(r); err != nil {
		return err
	}
	run, err := runFreshStudy(ctx, opts)
	if err != nil {
		return err
	}
	compare(digestOf(run.res), want, &r.tally)
	r.values["study.cpu_s"] = run.cpu
	r.values["study.parallel_eff"] = run.cpu / (run.wall * float64(opts.Workers))
	r.values["study.peak_rss_mb"] = peakRSSMB()

	info, err := persist.Inspect(opts.CheckpointPath)
	if err != nil {
		return err
	}
	// A fresh journal holds one record per probed machine and per cell.
	wantRecords := len(run.res.TargetNames) + 1 + len(run.res.Cells)
	if info.Status != persist.JournalClean || info.Records != wantRecords {
		r.check(fmt.Errorf("journal %s: status %s with %d records, want clean with %d",
			opts.CheckpointPath, info.Status, info.Records, wantRecords))
	} else {
		r.check(nil)
	}
	st, err := os.Stat(opts.CheckpointPath)
	if err != nil {
		return err
	}
	r.values["persist.records"] = float64(info.Records)
	r.values["persist.journal_bytes"] = float64(st.Size())
	resume, err := timeResumes(ctx, opts, want, r)
	if err != nil {
		return err
	}
	r.values["persist.resume_s"] = resume

	g, err := studyGrid(opts)
	if err != nil {
		return err
	}
	if err := replayGrid(ctx, e, g, run.wall, r); err != nil {
		return err
	}
	for _, name := range []string{
		"predictor.hit_ratio.probes", "predictor.hit_ratio.cells", "predictor.hit_ratio.predictions",
		"predictor.misses", "predictor.coalesced",
		"predictd.predict_p99_ms", "predictd.rank_p99_ms", "predictd.hot_rps", "predictd.heap_mb", "predictd.shed",
	} {
		r.values[name] = 0 // the study does not go through the predictor's caches or the server
	}
	r.values["fail_frac"] = r.failFrac()
	return nil
}

// studyGrid is the replay grid of a study workload: the study's base and
// targets, every CPU count of its apps, observed on every target.
func studyGrid(opts study.Options) (grid, error) {
	g := grid{base: machine.Base(), observe: true, workers: opts.Workers}
	names := opts.Targets
	if len(names) == 0 {
		for _, cfg := range machine.StudyTargets() {
			names = append(names, cfg.Name)
		}
	}
	for _, name := range names {
		cfg, err := machine.Preset(name)
		if err != nil {
			return grid{}, err
		}
		g.targets = append(g.targets, cfg)
	}
	wanted := map[string]bool{}
	for _, id := range opts.Apps {
		wanted[id] = true
	}
	for _, tc := range apps.Registry() {
		if len(wanted) > 0 && !wanted[tc.ID()] {
			continue
		}
		for _, procs := range tc.CPUCounts {
			g.cells = append(g.cells, gridCell{tc: tc, procs: procs})
		}
	}
	return g, nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set so far (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// recordGolden runs a study workload once and rewrites its golden file.
func recordGolden(ctx context.Context, e env) error {
	opts, err := studyOptions(e)
	if err != nil {
		return err
	}
	run, err := runFreshStudy(ctx, opts)
	if err != nil {
		return err
	}
	return writeGolden(e.workload, digestOf(run.res))
}
