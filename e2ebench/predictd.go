package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/metrics"
)

// The predictd-mixed key universe: three apps at their default CPU
// count, four targets and all nine metrics, 108 keys. The targets span
// four cache geometries. The universe and the fill order are fixed
// inputs; the seed drives the hot-phase request sequence.
var (
	fillApps    = [][2]string{{"avus", "standard"}, {"hycom", "standard"}, {"overflow2", "standard"}}
	fillTargets = []string{machine.ARLOpteron, machine.ARLXeon, machine.NAVO655, machine.ERDCOrigin3800}
)

const (
	numMetrics = 9
	// rankShare is the fraction of hot-phase requests that are /v1/rank;
	// the rest are /v1/predict.
	rankShare = 0.1
	// leadStarts and tailStarts are how many extra times a run starts
	// and stops predictd before the measured server and after it; setup_s
	// is the median start-to-healthy time over all of them, spread over
	// the run so one stall of the machine cannot move it.
	leadStarts, tailStarts = 2, 4
	// stopGrace is how long a stopping predictd may drain before it is
	// killed.
	stopGrace = 15 * time.Second
)

// key is one /v1/predict request of the universe.
type key struct {
	app, caseName, target string
	metric                int
}

func (k key) String() string {
	return fmt.Sprintf("%s-%s/%s/metric %d", k.app, k.caseName, k.target, k.metric)
}

func (k key) query() string {
	return "/v1/predict?" + url.Values{
		"app": {k.app}, "case": {k.caseName}, "target": {k.target}, "metric": {strconv.Itoa(k.metric)},
	}.Encode()
}

// universe lists the keys in fill order: app, then metric, then target,
// so the two fill clients start on different targets' probe suites.
func universe() []key {
	var keys []key
	for _, a := range fillApps {
		for m := 1; m <= numMetrics; m++ {
			for _, t := range fillTargets {
				keys = append(keys, key{app: a[0], caseName: a[1], target: t, metric: m})
			}
		}
	}
	return keys
}

// prediction is the part of a /v1/predict answer (or a /v1/rank entry)
// the benchmark checks.
type prediction struct {
	App              string   `json:"app"`
	Case             string   `json:"case"`
	Procs            int      `json:"procs"`
	Machine          string   `json:"machine"`
	MetricID         int      `json:"metric"`
	BaseSeconds      float64  `json:"base_seconds"`
	PredictedSeconds *float64 `json:"predicted_seconds"`
}

type ranking struct {
	App      string       `json:"app"`
	Case     string       `json:"case"`
	MetricID int          `json:"metric"`
	Entries  []prediction `json:"ranking"`
}

// checkPrediction checks that a decoded answer is well formed and is the
// answer to k: the echoed key matches and the predicted time is finite
// and positive. It returns the predicted time.
func checkPrediction(p prediction, k key, procs int) (float64, error) {
	if p.App != k.app || p.Case != k.caseName || p.Machine != k.target || p.MetricID != k.metric || p.Procs != procs {
		return 0, fmt.Errorf("%s: answer is for %s-%s@%d/%s/metric %d", k, p.App, p.Case, p.Procs, p.Machine, p.MetricID)
	}
	if p.PredictedSeconds == nil {
		return 0, fmt.Errorf("%s: no predicted_seconds", k)
	}
	v := *p.PredictedSeconds
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return 0, fmt.Errorf("%s: predicted_seconds %g is not finite and positive", k, v)
	}
	return v, nil
}

// checkRanking checks a /v1/rank answer for (app, metric) against the
// cold /v1/predict answers: one entry per universe target, each equal bit
// for bit to that key's answer, fastest first.
func checkRanking(rk ranking, app [2]string, metric, procs int, cold map[key]float64) error {
	what := fmt.Sprintf("rank %s-%s metric %d", app[0], app[1], metric)
	if rk.App != app[0] || rk.Case != app[1] || rk.MetricID != metric {
		return fmt.Errorf("%s: answer is for %s-%s metric %d", what, rk.App, rk.Case, rk.MetricID)
	}
	if len(rk.Entries) != len(fillTargets) {
		return fmt.Errorf("%s: %d entries, want %d", what, len(rk.Entries), len(fillTargets))
	}
	seen := map[string]bool{}
	prev := 0.0
	for i, e := range rk.Entries {
		k := key{app: app[0], caseName: app[1], target: e.Machine, metric: metric}
		v, err := checkPrediction(e, k, procs)
		if err != nil {
			return fmt.Errorf("%s: entry %d: %w", what, i, err)
		}
		want, ok := cold[k]
		switch {
		case !ok || seen[e.Machine]:
			return fmt.Errorf("%s: unexpected or repeated entry %s", what, e.Machine)
		case math.Float64bits(v) != math.Float64bits(want):
			return fmt.Errorf("%s: entry %s is %s, /v1/predict said %s", what, e.Machine, bits(v), bits(want))
		case v < prev:
			return fmt.Errorf("%s: entry %s is out of order", what, e.Machine)
		}
		seen[e.Machine] = true
		prev = v
	}
	return nil
}

// checkMetric4 checks, for every (app, target) of the universe, that the
// convolver with memory ignored (metric 4) reproduces the HPL ratio
// (metric 1), within the relative 1e-9 the metrics package's own test
// allows.
func checkMetric4(cold map[key]float64, t *tally) {
	for _, a := range fillApps {
		for _, tg := range fillTargets {
			k1 := key{app: a[0], caseName: a[1], target: tg, metric: 1}
			k4 := k1
			k4.metric = 4
			p1, ok1 := cold[k1]
			p4, ok4 := cold[k4]
			if !ok1 || !ok4 || math.Abs(p1-p4) > 1e-9*p1 {
				t.check(fmt.Errorf("%s: metric 4 (%g) != metric 1 (%g)", k1, p4, p1))
				continue
			}
			t.check(nil)
		}
	}
}

// server is one running predictd process.
type server struct {
	cmd     *exec.Cmd
	cancel  context.CancelFunc // sends SIGTERM
	base    string             // http://host:port
	stopped bool
}

// startServer starts predictd on an ephemeral port and waits until
// /healthz answers 200; it returns the server and the seconds from
// process start to healthy.
func startServer(ctx context.Context, e env, client *http.Client) (*server, float64, error) {
	if e.predictd == "" {
		return nil, 0, errors.New("--predictd is required")
	}
	ready, err := e.scratchPath("predictd.ready")
	if err != nil {
		return nil, 0, err
	}
	logPath, err := e.scratchPath("predictd.log")
	if err != nil {
		return nil, 0, err
	}
	if err := os.Remove(ready); err != nil && !os.IsNotExist(err) {
		return nil, 0, err
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logFile.Close() // the child holds its own descriptor
	sctx, cancel := context.WithCancel(ctx)
	cmd := exec.CommandContext(sctx, e.predictd, "-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(runtime.NumCPU()), "-ready-file", ready)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = stopGrace
	cmd.Stdout, cmd.Stderr = logFile, logFile
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		cancel()
		return nil, 0, err
	}
	s := &server{cmd: cmd, cancel: cancel}
	deadline := t0.Add(30 * time.Second)
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, errors.Join(err, s.stop())
		}
		if time.Now().After(deadline) {
			return nil, 0, errors.Join(fmt.Errorf("predictd not healthy after 30s (log %s)", logPath), s.stop())
		}
		if s.base == "" {
			if b, err := os.ReadFile(ready); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				s.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if s.base != "" {
			if status, _, err := get(ctx, client, s.base+"/healthz"); err == nil && status == http.StatusOK {
				return s, time.Since(t0).Seconds(), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks predictd to drain (SIGTERM; exec kills it if it has not
// exited within stopGrace) and waits for it to exit.
func (s *server) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	s.cancel()
	err := s.cmd.Wait()
	if s.cmd.ProcessState != nil && s.cmd.ProcessState.Success() {
		return nil // a clean drain; Wait reports the cancellation that asked for it
	}
	return err
}

// get fetches url and reads the whole body.
func get(ctx context.Context, client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// defaultProcs is the CPU count the server picks for each universe app.
func defaultProcs() (map[string]int, error) {
	out := map[string]int{}
	for _, a := range fillApps {
		tc, err := apps.Lookup(a[0], a[1])
		if err != nil {
			return nil, err
		}
		if out[a[0]], err = tc.DefaultProcs(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runPredictd(ctx context.Context, e env, r *report) error {
	procs, err := defaultProcs()
	if err != nil {
		return err
	}
	workers := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers}}
	defer client.CloseIdleConnections()

	setups, err := startStop(ctx, e, client, leadStarts)
	if err != nil {
		return err
	}
	srv, setup, err := startServer(ctx, e, client)
	if err != nil {
		return err
	}
	setups = append(setups, setup)
	defer func() {
		if err := srv.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: stopping predictd: %v\n", err)
		}
	}()

	// Cold fill: every key once, from `workers` closed-loop clients.
	keys := universe()
	cold := make(map[key]float64, len(keys))
	coldVals := make([]float64, len(keys))
	coldErrs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	fillStart := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) || ctx.Err() != nil {
					return
				}
				coldVals[i], coldErrs[i] = predictOnce(ctx, client, srv.base, keys[i], procs)
			}
		}()
	}
	wg.Wait()
	fill := time.Since(fillStart).Seconds()
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, k := range keys {
		r.check(coldErrs[i])
		if coldErrs[i] == nil {
			cold[k] = coldVals[i]
		}
	}
	checkMetric4(cold, &r.tally)

	hot, err := hotPhase(ctx, e, client, srv.base, keys, procs, cold, &r.tally)
	if err != nil {
		return err
	}
	if e.trace {
		if err := scrapeServer(ctx, client, srv.base, r); err != nil {
			return err
		}
	}
	if err := srv.stop(); err != nil {
		return fmt.Errorf("stopping predictd: %w", err)
	}
	more, err := startStop(ctx, e, client, tailStarts)
	if err != nil {
		return err
	}

	r.values["setup_s"] = median(append(setups, more...))
	// The server's grid computation is its cold fill: on this workload
	// study_s and fill_s are one measurement.
	r.values["study_s"] = fill
	r.values["fill_s"] = fill
	r.values["predict_p50_ms"] = median(append([]float64(nil), hot.predictMs...))
	r.values["rank_p50_ms"] = median(append([]float64(nil), hot.rankMs...))
	if !e.trace {
		return nil
	}

	r.values["predictd.predict_p99_ms"] = quantile(hot.predictMs, 0.99)
	r.values["predictd.rank_p99_ms"] = quantile(hot.rankMs, 0.99)
	r.values["predictd.hot_rps"] = float64(len(hot.predictMs)+len(hot.rankMs)) / hot.seconds
	r.values["predictd.shed"] = float64(hot.shed)
	if err := microTimings(r); err != nil {
		return err
	}
	g, err := fillGrid(procs)
	if err != nil {
		return err
	}
	if err := replayGrid(ctx, e, g, fill, r); err != nil {
		return err
	}
	for _, name := range []string{
		"persist.records", "persist.journal_bytes", "persist.resume_s",
		"study.cpu_s", "study.parallel_eff", "study.peak_rss_mb",
	} {
		r.values[name] = 0 // predictd neither journals nor runs the study harness
	}
	r.values["fail_frac"] = r.failFrac()
	return nil
}

// startStop starts and stops predictd n times and returns each start's
// seconds to healthy.
func startStop(ctx context.Context, e env, client *http.Client, n int) ([]float64, error) {
	var setups []float64
	for i := 0; i < n; i++ {
		srv, setup, err := startServer(ctx, e, client)
		if err != nil {
			return nil, err
		}
		if err := srv.stop(); err != nil {
			return nil, fmt.Errorf("stopping predictd: %w", err)
		}
		client.CloseIdleConnections()
		setups = append(setups, setup)
	}
	return setups, nil
}

// predictOnce sends one /v1/predict and checks the answer.
func predictOnce(ctx context.Context, client *http.Client, base string, k key, procs map[string]int) (float64, error) {
	status, body, err := get(ctx, client, base+k.query())
	if err != nil {
		return 0, fmt.Errorf("%s: %w", k, err)
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d: %s", k, status, strings.TrimSpace(string(body)))
	}
	var p prediction
	if err := json.Unmarshal(body, &p); err != nil {
		return 0, fmt.Errorf("%s: %w", k, err)
	}
	return checkPrediction(p, k, procs[k.app])
}

// hotResult holds the hot phase's per-request latencies.
type hotResult struct {
	predictMs, rankMs []float64
	shed              int
	seconds           float64
}

// hotPhase runs one closed-loop client for a third of the run's window:
// a seeded sequence of /v1/predict over the universe keys and, with
// probability rankShare, /v1/rank of one (app, metric) over the universe
// targets. Every answer is checked against the cold fill's.
func hotPhase(ctx context.Context, e env, client *http.Client, base string, keys []key, procs map[string]int, cold map[key]float64, t *tally) (hotResult, error) {
	rng := rand.New(rand.NewSource(e.seed))
	targets := strings.Join(fillTargets, ",")
	var hot hotResult
	start := time.Now()
	deadline := start.Add(e.seconds / 3)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return hot, err
		}
		if rng.Float64() >= rankShare {
			k := keys[rng.Intn(len(keys))]
			t0 := time.Now()
			status, body, err := get(ctx, client, base+k.query())
			hot.predictMs = append(hot.predictMs, msSince(t0))
			t.check(checkHotPredict(k, status, body, err, procs, cold, &hot))
			continue
		}
		app := fillApps[rng.Intn(len(fillApps))]
		metric := 1 + rng.Intn(numMetrics)
		q := "/v1/rank?" + url.Values{
			"app": {app[0]}, "case": {app[1]}, "metric": {strconv.Itoa(metric)}, "targets": {targets},
		}.Encode()
		t0 := time.Now()
		status, body, err := get(ctx, client, base+q)
		hot.rankMs = append(hot.rankMs, msSince(t0))
		t.check(checkHotRank(app, metric, status, body, err, procs, cold, &hot))
	}
	hot.seconds = time.Since(start).Seconds()
	if len(hot.predictMs) == 0 || len(hot.rankMs) == 0 {
		return hot, fmt.Errorf("hot phase sent %d predicts and %d ranks; need at least one of each", len(hot.predictMs), len(hot.rankMs))
	}
	return hot, nil
}

// checkHotPredict checks a hot /v1/predict answer: well formed, and bit
// for bit the answer the key got cold.
func checkHotPredict(k key, status int, body []byte, err error, procs map[string]int, cold map[key]float64, hot *hotResult) error {
	if err := httpErr(k.String(), status, body, err, hot); err != nil {
		return err
	}
	var p prediction
	if err := json.Unmarshal(body, &p); err != nil {
		return fmt.Errorf("%s: %w", k, err)
	}
	v, err := checkPrediction(p, k, procs[k.app])
	if err != nil {
		return err
	}
	want, ok := cold[k]
	if !ok {
		return fmt.Errorf("%s: no cold answer to compare with", k)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		return fmt.Errorf("%s: hot answer %s, cold answer %s", k, bits(v), bits(want))
	}
	return nil
}

// checkHotRank checks a hot /v1/rank answer against the cold fill's.
func checkHotRank(app [2]string, metric, status int, body []byte, err error, procs map[string]int, cold map[key]float64, hot *hotResult) error {
	if err := httpErr("rank", status, body, err, hot); err != nil {
		return err
	}
	var rk ranking
	if err := json.Unmarshal(body, &rk); err != nil {
		return fmt.Errorf("rank: %w", err)
	}
	return checkRanking(rk, app, metric, procs[app[0]], cold)
}

// httpErr turns a transport error or a non-200 status into an error,
// counting 429 and 503 as shed.
func httpErr(what string, status int, body []byte, err error, hot *hotResult) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		hot.shed++
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", what, status, strings.TrimSpace(string(body)))
	}
	return nil
}

// scrapeServer reads the predictor's cache statistics from /v1/cache
// and the heap gauge from /metrics.
func scrapeServer(ctx context.Context, client *http.Client, base string, r *report) error {
	status, body, err := get(ctx, client, base+"/v1/cache")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("/v1/cache: status %d: %v", status, err)
	}
	var stats map[string]struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		return fmt.Errorf("/v1/cache: %w", err)
	}
	var misses, coalesced int64
	for _, layer := range []string{"probes", "cells", "predictions"} {
		st, ok := stats[layer]
		if !ok {
			return fmt.Errorf("/v1/cache: no %q layer", layer)
		}
		ratio := 0.0
		if n := st.Hits + st.Misses + st.Coalesced; n > 0 {
			ratio = float64(st.Hits) / float64(n)
		}
		r.values["predictor.hit_ratio."+layer] = ratio
		misses += st.Misses
		coalesced += st.Coalesced
	}
	r.values["predictor.misses"] = float64(misses)
	r.values["predictor.coalesced"] = float64(coalesced)

	status, body, err = get(ctx, client, base+"/metrics")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("/metrics: status %d: %v", status, err)
	}
	heap, err := promValue(body, "runtime_heap_alloc_bytes")
	if err != nil {
		return err
	}
	r.values["predictd.heap_mb"] = heap / (1 << 20)
	return nil
}

// promValue returns the value of an unlabelled sample in a Prometheus
// text exposition.
func promValue(body []byte, name string) (float64, error) {
	for _, line := range strings.Split(string(body), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == name {
			return strconv.ParseFloat(fields[1], 64)
		}
	}
	return 0, fmt.Errorf("/metrics: no %s sample", name)
}

// fillGrid is the replay grid of predictd-mixed's fill: the base and the
// universe targets probed, each universe app run and traced on the base
// at its default CPU count, no target executions (a prediction does not
// observe), and every key predicted.
func fillGrid(procs map[string]int) (grid, error) {
	g := grid{base: machine.Base(), workers: runtime.NumCPU()}
	for _, name := range fillTargets {
		cfg, err := machine.Preset(name)
		if err != nil {
			return grid{}, err
		}
		g.targets = append(g.targets, cfg)
	}
	for _, a := range fillApps {
		tc, err := apps.Lookup(a[0], a[1])
		if err != nil {
			return grid{}, err
		}
		g.cells = append(g.cells, gridCell{tc: tc, procs: procs[a[0]]})
	}
	if len(g.cells)*len(g.targets)*len(metrics.All()) != len(universe()) {
		return grid{}, errors.New("fill grid does not match the key universe")
	}
	return g, nil
}
