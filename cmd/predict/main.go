// Command predict makes one prediction: the runtime of an application
// test case on a target machine, using a chosen metric (1-9), and — when
// the job fits on the simulated target — compares it against the
// ground-truth observed time, reporting the paper's Equation 2 error.
//
// Base and observed times, traces and probe suites come from an
// internal/predictor Predictor — the same layers the study harness and
// the predictd server read — so a number printed here is byte-identical
// to theirs for the same cell.
//
// Usage:
//
//	predict -app hycom -target ARL_Opteron [-metric 9] [-procs 96] [-all]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"hpcmetrics"
	"hpcmetrics/internal/metrics"
	"hpcmetrics/internal/persist"
	"hpcmetrics/internal/predictor"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole CLI, factored from main so tests can drive it with
// arbitrary flags and capture both streams. Returns the process exit
// code: 0 on success, 1 on runtime errors, 2 on usage errors.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "", "application name (avus, hycom, overflow2, rfcth)")
	caseName := fs.String("case", "", "test case (standard, large)")
	procs := fs.Int("procs", 0, "processor count (default: the test case's middle count)")
	target := fs.String("target", "", "target machine preset")
	metricID := fs.Int("metric", 9, "metric number 1-9 (paper Table 3)")
	all := fs.Bool("all", false, "apply all nine metrics")
	tracePath := fs.String("trace", "", "reuse a trace written by tracer -o instead of tracing now")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *appName == "" || *target == "" {
		fmt.Fprintln(stderr, "predict: -app and -target are required")
		fs.Usage()
		return 2
	}
	// -all applies every metric; a -metric given alongside it would be
	// silently ignored, so the combination is rejected rather than
	// guessed at.
	metricSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "metric" {
			metricSet = true
		}
	})
	if metricSet && *all {
		fmt.Fprintln(stderr, "predict: -metric and -all are mutually exclusive (drop one)")
		return 2
	}

	if err := predict(ctx, *appName, *caseName, *procs, *target, *metricID, *all, *tracePath, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "predict:", err)
		return 1
	}
	return 0
}

func predict(ctx context.Context, appName, caseName string, procs int, target string, metricID int, all bool, tracePath string, stdout, stderr io.Writer) error {
	p := predictor.New(predictor.Config{})

	tc, err := hpcmetrics.LookupTestCase(appName, caseName)
	if err != nil {
		return err
	}
	if procs == 0 {
		if procs, err = tc.DefaultProcs(); err != nil {
			return err
		}
	}

	base := hpcmetrics.BaseMachine()
	targetCfg, err := hpcmetrics.LookupMachine(target)
	if err != nil {
		return err
	}

	var (
		baseSeconds float64
		tr          *hpcmetrics.Trace
	)
	if tracePath != "" {
		fmt.Fprintf(stderr, "loading trace from %s...\n", tracePath)
		tr, err = persist.LoadTrace(tracePath)
		if err != nil {
			return err
		}
		if err := validateTrace(tr, tc, procs); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "running %s at %d CPUs on the base system...\n", tc.ID(), procs)
		baseSeconds, err = p.Observe(ctx, tc, procs, base)
	} else {
		fmt.Fprintf(stderr, "running and tracing %s at %d CPUs on the base system...\n", tc.ID(), procs)
		baseSeconds, tr, err = p.Cell(ctx, tc, procs)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(stderr, "probing %s and %s...\n", base.Name, targetCfg.Name)
	basePr, err := p.Probes(ctx, base)
	if err != nil {
		return err
	}
	targetPr, err := p.Probes(ctx, targetCfg)
	if err != nil {
		return err
	}

	// A job too large for the target is not a failure — there is simply
	// no observation, like the blank cells in the paper's appendix — but
	// every other execution error is real and must not be swallowed.
	actual, err := p.Observe(ctx, tc, procs, targetCfg)
	fits := !errors.Is(err, hpcmetrics.ErrJobTooLarge)
	if err != nil && fits {
		return err
	}

	fmt.Fprintf(stdout, "%s at %d CPUs: base (%s) observed %.0f s\n",
		tc.ID(), procs, base.Name, baseSeconds)

	ids := []int{metricID}
	if all {
		ids = []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	}
	for _, id := range ids {
		m, err := hpcmetrics.MetricByID(id)
		if err != nil {
			return err
		}
		pred, err := predictor.Engine{}.PredictMetric(ctx, m, metrics.Context{
			Trace: tr, Base: basePr, Target: targetPr, BaseSeconds: baseSeconds,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metric %-4s %-20s predicts %8.0f s on %s",
			m.Label(), m.Name, pred, targetCfg.Name)
		if fits {
			fmt.Fprintf(stdout, "  (observed %.0f s, error %+.0f%%)",
				actual, hpcmetrics.SignedError(pred, actual))
		}
		fmt.Fprintln(stdout)
	}
	if !fits {
		fmt.Fprintf(stdout, "(job does not fit on %s's %d processors; no observed time)\n",
			targetCfg.Name, targetCfg.TotalProcs)
	}
	return nil
}

// validateTrace rejects a reused trace that was collected for a
// different cell. All three identity fields are checked — a trace of the
// right application and processor count but the wrong test case (a
// "standard" trace driving a "large" prediction) is as wrong as a
// different application.
func validateTrace(tr *hpcmetrics.Trace, tc hpcmetrics.AppTestCase, procs int) error {
	if tr.App != tc.Name || tr.Case != tc.Case || tr.Procs != procs {
		return fmt.Errorf("trace is %s-%s@%d, requested %s@%d",
			tr.App, tr.Case, tr.Procs, tc.ID(), procs)
	}
	return nil
}
