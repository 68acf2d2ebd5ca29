package predictor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/metrics"
	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/simexec"
)

// herdRequest is the cell every heavy test in this file predicts: the
// study's cheapest cell, so the suite pays for one base run + trace.
var herdRequest = Request{App: "rfcth", Case: "standard", Procs: 16, Machine: machine.ARLOpteron, MetricID: 9}

// TestPredictCoalescesColdHerd is the PR's acceptance test: N identical
// concurrent requests against cold caches must run every underlying
// computation exactly once — one base execution, one trace, one metric
// convolution, one probe suite per machine — counter-asserted through
// the obs registry the Engine reports into.
func TestPredictCoalescesColdHerd(t *testing.T) {
	if testing.Short() {
		t.Skip("probes two machines and runs a base execution + trace")
	}
	const herd = 8
	o := obs.New()
	ctx := o.Inject(context.Background())
	p := New(Config{})

	results := make([]*Result, herd)
	errs := make([]error, herd)
	var wg sync.WaitGroup
	var gun sync.WaitGroup
	gun.Add(1)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gun.Wait()
			results[i], errs[i] = p.Predict(ctx, herdRequest)
		}(i)
	}
	gun.Done()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	want := math.Float64bits(results[0].PredictedSeconds)
	colds := 0
	for i, res := range results {
		if math.Float64bits(res.PredictedSeconds) != want {
			t.Errorf("request %d predicted %v, request 0 predicted %v: cache hits are not exact",
				i, res.PredictedSeconds, results[0].PredictedSeconds)
		}
		switch res.Outcome {
		case "cold":
			colds++
			if res.Cached {
				t.Errorf("request %d: cold outcome but Cached=true", i)
			}
		case "coalesced", "cached":
			if !res.Cached {
				t.Errorf("request %d: %s outcome but Cached=false", i, res.Outcome)
			}
		default:
			t.Errorf("request %d: outcome %q, want cold/coalesced/cached", i, res.Outcome)
		}
	}
	if colds == 0 {
		t.Error("no herd member reported a cold outcome; someone must have led")
	}

	meter := o.Metrics
	for name, want := range map[string]int64{
		"predictor_probe_runs_total":           2, // base + target, once each
		"predictor_exec_runs_total":            1, // the base run; no ground truth requested
		"predictor_trace_runs_total":           1,
		"predictor_metric_runs_total":          1, // the convolution the herd coalesced onto
		"predictor_predict_cache_misses_total": 1,
	} {
		if got := meter.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	followers := meter.Counter("predictor_predict_cache_hits_total").Value() +
		meter.Counter("predictor_predict_cache_coalesced_total").Value()
	if followers != herd-1 {
		t.Errorf("prediction hits+coalesced = %d, want %d (every non-leader)", followers, herd-1)
	}

	// A later identical request is an exact cache hit, flagged as such,
	// and moves no run counter.
	res, err := p.Predict(ctx, herdRequest)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("repeat request not reported as cached")
	}
	if res.Outcome != "cached" {
		t.Errorf("repeat request outcome %q, want cached (every layer settled)", res.Outcome)
	}
	stats := p.CacheStats()
	for _, layer := range []string{"probes", "cells", "predictions", "observations", "counts"} {
		if _, ok := stats[layer]; !ok {
			t.Errorf("CacheStats missing layer %q: %v", layer, stats)
		}
	}
	if st := stats["predictions"]; st.Keys != 1 || st.Misses != 1 {
		t.Errorf("predictions layer stat = %+v, want 1 key, 1 miss", st)
	}
	if st := stats["cells"]; st.Keys != 1 || st.Misses != 1 {
		t.Errorf("cells layer stat = %+v, want 1 key, 1 miss", st)
	}
	if st := stats["probes"]; st.Keys != 2 || st.Misses != 2 {
		t.Errorf("probes layer stat = %+v, want 2 keys, 2 misses", st)
	}
	if st := stats["observations"]; st.Keys != 0 {
		t.Errorf("observations layer stat = %+v, want untouched", st)
	}
	// The probe suites and the base run counted their streams through
	// the predictor's memo: the ENHANCED MAPS sweeps hit the plain ones.
	if st := stats["counts"]; st.Misses == 0 || st.Hits == 0 || st.Keys != int(st.Misses) ||
		st.Misses != meter.Counter("memsim_count_misses_total").Value() {
		t.Errorf("counts layer stat = %+v, want hits, one key per miss, misses = memsim_count_misses_total (%d)",
			st, meter.Counter("memsim_count_misses_total").Value())
	}
	if math.Float64bits(res.PredictedSeconds) != want {
		t.Errorf("cached prediction %v differs from cold %v", res.PredictedSeconds, results[0].PredictedSeconds)
	}
	if got := meter.Counter("predictor_metric_runs_total").Value(); got != 1 {
		t.Errorf("repeat request ran the metric again: predictor_metric_runs_total = %d", got)
	}

	// The facade's cached answer must match the model computed by hand
	// from direct Engine calls (probe, execute, trace, predict), the base
	// run scaled by its observation noise, bit for bit.
	var eng Engine
	base := machine.Base()
	target, err := machine.Preset(herdRequest.Machine)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := apps.Lookup(herdRequest.App, herdRequest.Case)
	if err != nil {
		t.Fatal(err)
	}
	app, err := tc.Instance(herdRequest.Procs)
	if err != nil {
		t.Fatal(err)
	}
	basePr, err := eng.Probes(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	targetPr, err := eng.Probes(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	baseRun, err := eng.Execute(ctx, base, app)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.Trace(ctx, base, app)
	if err != nil {
		t.Fatal(err)
	}
	m, err := metrics.ByID(herdRequest.MetricID)
	if err != nil {
		t.Fatal(err)
	}
	baseSeconds := baseRun.Seconds * observationNoise("rfcth-standard@16", base.Name)
	direct, err := eng.PredictMetric(ctx, m, metrics.Context{
		Trace: tr, Base: basePr, Target: targetPr, BaseSeconds: baseSeconds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(direct) != want {
		t.Errorf("direct Engine computation %v differs from facade's cached %v", direct, res.PredictedSeconds)
	}
	if math.Float64bits(baseSeconds) != math.Float64bits(res.BaseSeconds) {
		t.Errorf("direct base time %v differs from facade's %v", baseSeconds, res.BaseSeconds)
	}
}

// TestRankOrdersFastestFirst ranks the cell across three systems and
// checks ordering plus the shared-cache effect: the cell's base run and
// trace are computed once, not once per machine.
func TestRankOrdersFastestFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("probes four machines and runs a base execution + trace")
	}
	o := obs.New()
	ctx := o.Inject(context.Background())
	p := New(Config{Workers: 3})
	machines := []string{machine.ARLOpteron, machine.MHPCCPower3, machine.ASCSC45}
	ranking, err := p.Rank(ctx, RankRequest{
		App: "rfcth", Case: "standard", Procs: 16, MetricID: 1, Machines: machines,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking.Entries) != len(machines) {
		t.Fatalf("ranking has %d entries, want %d", len(ranking.Entries), len(machines))
	}
	for i := 1; i < len(ranking.Entries); i++ {
		if ranking.Entries[i-1].PredictedSeconds > ranking.Entries[i].PredictedSeconds {
			t.Errorf("ranking not sorted: entry %d (%s, %.0fs) slower than entry %d (%s, %.0fs)",
				i-1, ranking.Entries[i-1].Machine, ranking.Entries[i-1].PredictedSeconds,
				i, ranking.Entries[i].Machine, ranking.Entries[i].PredictedSeconds)
		}
	}
	if got := o.Metrics.Counter("predictor_trace_runs_total").Value(); got != 1 {
		t.Errorf("rank traced the cell %d times, want 1 (shared across machines)", got)
	}
	if got := o.Metrics.Counter("predictor_metric_runs_total").Value(); got != int64(len(machines)) {
		t.Errorf("rank ran %d metric predictions, want %d (one per machine)", got, len(machines))
	}
}

// TestResolveRejectsBadRequests: every invalid field maps to
// ErrBadRequest so the server can blame the client, not itself.
func TestResolveRejectsBadRequests(t *testing.T) {
	p := New(Config{})
	cases := []struct {
		name string
		req  Request
	}{
		{"unknown app", Request{App: "nonesuch", Machine: machine.ARLOpteron, MetricID: 9}},
		{"unknown case", Request{App: "avus", Case: "huge", Machine: machine.ARLOpteron, MetricID: 9}},
		{"unknown machine", Request{App: "avus", Machine: "CRAY_XMP", MetricID: 9}},
		{"unknown metric", Request{App: "avus", Machine: machine.ARLOpteron, MetricID: 10}},
		{"negative procs", Request{App: "avus", Procs: -4, Machine: machine.ARLOpteron, MetricID: 9}},
	}
	for _, c := range cases {
		if _, err := p.Predict(context.Background(), c.req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", c.name, err)
		}
	}
	if _, err := p.Rank(context.Background(), RankRequest{
		App: "avus", MetricID: 9, Machines: []string{machine.ARLOpteron, "CRAY_XMP"},
	}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("rank with one bad machine: err = %v, want ErrBadRequest", err)
	}
}

// TestObserveTooLarge: a job exceeding the machine's processor count is a
// missing observation, reported as an error wrapping simexec.ErrTooLarge
// so a caller can tell it from a failure — and, being an answer rather
// than a failure, it is cached.
func TestObserveTooLarge(t *testing.T) {
	o := obs.New()
	ctx := o.Inject(context.Background())
	p := New(Config{})
	cfg := machine.MustPreset(machine.ARLOpteron)
	tc, err := apps.Lookup("avus", "standard")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		seconds, err := p.Observe(ctx, tc, cfg.TotalProcs+1, cfg)
		if !errors.Is(err, simexec.ErrTooLarge) {
			t.Fatalf("too-large job: err = %v, want ErrTooLarge", err)
		}
		if seconds != 0 {
			t.Fatalf("too-large job observed %g s", seconds)
		}
	}
	if got := o.Metrics.Counter("predictor_exec_runs_total").Value(); got != 1 {
		t.Errorf("predictor_exec_runs_total = %d, want 1 (the too-large answer is cached)", got)
	}
}

// TestObserveRealError: any execution failure other than a too-large job
// must surface, not silently leave the observation at zero.
func TestObserveRealError(t *testing.T) {
	p := New(Config{})
	tc, err := apps.Lookup("avus", "standard")
	if err != nil {
		t.Fatal(err)
	}
	bad := &machine.Config{} // fails validation inside Execute
	_, err = p.Observe(context.Background(), tc, 32, bad)
	if err == nil || errors.Is(err, simexec.ErrTooLarge) {
		t.Fatalf("execution failure reported as %v, want a real error", err)
	}
}

// TestObserveFits: a job that fits returns its executor time scaled by
// the cell's observation noise, or unscaled with the noise ablated.
func TestObserveFits(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full-fidelity executions")
	}
	ctx := context.Background()
	cfg := machine.MustPreset(machine.ARLOpteron)
	tc, err := apps.Lookup("rfcth", "standard")
	if err != nil {
		t.Fatal(err)
	}
	app, err := tc.Instance(16)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Engine{}.Execute(ctx, cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		model Model
		want  float64
	}{
		{Model{}, run.Seconds * observationNoise("rfcth-standard@16", cfg.Name)},
		{Model{DisableNoise: true}, run.Seconds},
	} {
		seconds, err := New(Config{Model: c.model}).Observe(ctx, tc, 16, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if seconds <= 0 || math.Float64bits(seconds) != math.Float64bits(c.want) {
			t.Errorf("model %+v: observed %v, want %v", c.model, seconds, c.want)
		}
	}
}

func TestObservationNoiseProperties(t *testing.T) {
	n1 := observationNoise("a-b@8", "m1")
	n2 := observationNoise("a-b@8", "m1")
	if n1 != n2 {
		t.Fatal("noise not deterministic")
	}
	if n1 < 1-NoiseAmplitude || n1 > 1+NoiseAmplitude {
		t.Fatalf("noise %g outside band", n1)
	}
	if observationNoise("a-b@8", "m2") == n1 {
		t.Fatal("noise identical across machines")
	}
}

// --- cache mechanics (no simulation, all synthetic computes) ---

// TestCacheDoesNotCacheErrors: a failed computation leaves no residue;
// the next request recomputes and can succeed.
func TestCacheDoesNotCacheErrors(t *testing.T) {
	c := newCache("t", "t")
	ctx := context.Background()
	calls := 0
	boom := errors.New("boom")
	if _, _, err := c.get(ctx, "k", func(context.Context) (any, error) {
		calls++
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, kind, err := c.get(ctx, "k", func(context.Context) (any, error) {
		calls++
		return 42, nil
	})
	if err != nil || v.(int) != 42 || kind.cached() {
		t.Fatalf("second get = (%v, kind=%v, %v), want fresh 42", v, kind, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (error not cached)", calls)
	}
	if c.size() != 1 {
		t.Fatalf("cache holds %d keys, want 1", c.size())
	}
}

// TestCacheFollowerSurvivesLeaderCancellation: the leader's own deadline
// dying must not fail the followers coalesced behind it — they elect a
// new leader and still get an answer.
func TestCacheFollowerSurvivesLeaderCancellation(t *testing.T) {
	c := newCache("t", "t")
	lctx, lcancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.get(lctx, "k", func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		leaderDone <- err
	}()
	<-started

	followerDone := make(chan struct{})
	var fv any
	var ferr error
	go func() {
		defer close(followerDone)
		fv, _, ferr = c.get(context.Background(), "k", func(context.Context) (any, error) {
			return "recovered", nil
		})
	}()
	// Let the follower reach its wait before the leader dies; the exact
	// interleaving does not matter for correctness, only for making the
	// coalesced path likely.
	time.Sleep(10 * time.Millisecond)
	lcancel()

	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	select {
	case <-followerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("follower hung after leader cancellation")
	}
	if ferr != nil || fv.(string) != "recovered" {
		t.Fatalf("follower = (%v, %v), want recovered", fv, ferr)
	}
}

// TestCacheEmitsOutcomeSpans: under a traced request context, a cold
// get runs its computation inside a "<layer>.compute" span (outcome
// cold) and a coalesced follower's wait is a "<layer>.wait" span
// annotated with the leader's trace ID — the attributes tracecheck
// -serve joins on.
func TestCacheEmitsOutcomeSpans(t *testing.T) {
	c := newCache("t_cache", "layer")
	o := obs.New()

	leaderCtx, leaderRoot := obs.StartRequestSpan(o.Inject(context.Background()), "predict", "")
	followerCtx, followerRoot := obs.StartRequestSpan(o.Inject(context.Background()), "predict", "")

	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		if _, kind, err := c.get(leaderCtx, "k", func(context.Context) (any, error) {
			close(started)
			<-release
			return "v", nil
		}); err != nil || kind != hitMiss {
			t.Errorf("leader get = (kind=%v, %v), want led miss", kind, err)
		}
	}()
	<-started
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		if _, kind, err := c.get(followerCtx, "k", func(context.Context) (any, error) {
			return nil, fmt.Errorf("follower must not lead")
		}); err != nil || kind != hitCoalesced {
			t.Errorf("follower get = (kind=%v, %v), want coalesced", kind, err)
		}
	}()
	// Let the follower reach its wait before releasing the leader, so
	// the coalesced path is taken (same idea as the tests above).
	time.Sleep(10 * time.Millisecond)
	close(release)
	<-leaderDone
	<-followerDone
	leaderRoot.End()
	followerRoot.End()

	var compute, wait *obs.SpanRecord
	for _, rec := range o.Tracer.Records() {
		rec := rec
		switch rec.Name {
		case "layer.compute":
			compute = &rec
		case "layer.wait":
			wait = &rec
		}
	}
	if compute == nil || wait == nil {
		t.Fatalf("span log missing compute/wait spans: %+v", o.Tracer.Records())
	}
	if compute.Attrs[obs.AttrOutcome] != "cold" || compute.Trace != leaderRoot.TraceID() {
		t.Errorf("compute span = %+v, want outcome cold under leader trace %s", compute, leaderRoot.TraceID())
	}
	if wait.Attrs[obs.AttrOutcome] != "coalesced" {
		t.Errorf("wait span outcome = %q, want coalesced", wait.Attrs[obs.AttrOutcome])
	}
	if wait.Attrs[obs.AttrLeaderTrace] != leaderRoot.TraceID() {
		t.Errorf("wait span leader_trace = %q, want the leader's trace %s",
			wait.Attrs[obs.AttrLeaderTrace], leaderRoot.TraceID())
	}
	if wait.Trace != followerRoot.TraceID() {
		t.Errorf("wait span trace = %q, want the follower's own trace %s", wait.Trace, followerRoot.TraceID())
	}

	st := c.stat()
	if st.Keys != 1 || st.Misses != 1 || st.Coalesced != 1 || st.Hits != 0 {
		t.Errorf("cache stat = %+v, want 1 key, 1 miss, 1 coalesced", st)
	}
}

// TestCacheWaiterHonorsOwnDeadline: a follower whose own context expires
// abandons the wait with its context's error, leaving the leader alone.
func TestCacheWaiterHonorsOwnDeadline(t *testing.T) {
	c := newCache("t", "t")
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, err := c.get(context.Background(), "k", func(context.Context) (any, error) {
			close(started)
			<-release
			return "slow", nil
		})
		if err != nil {
			t.Errorf("leader err = %v", err)
		}
	}()
	<-started

	fctx, fcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer fcancel()
	_, _, err := c.get(fctx, "k", func(context.Context) (any, error) {
		return nil, fmt.Errorf("follower must not lead")
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower err = %v, want DeadlineExceeded", err)
	}
	close(release)
	<-leaderDone

	// The leader's value settled and is served as a hit.
	v, kind, err := c.get(context.Background(), "k", func(context.Context) (any, error) {
		return nil, fmt.Errorf("must hit")
	})
	if err != nil || kind != hitSettled || v.(string) != "slow" {
		t.Fatalf("post-settle get = (%v, kind=%v, %v), want settled slow", v, kind, err)
	}
}
