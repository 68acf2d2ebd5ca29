// Package predictor is the answer to the paper's procurement question as
// a callable facade: "how fast will application X's test case C run on
// machine Y at Z processors, by metric M?" — a stateless Engine, plus a
// memoizing, coalescing Predictor: the one place a (cell, machine) pair
// becomes a base time, trace or observed time, read alike by the study
// harness, the predict CLI and the predictd server.
//
// Probes and trace signatures are deterministic functions of their
// inputs, so the Predictor caches them with exact hits, keyed
// per-machine and per-(app, case, procs); full predictions and observed
// ground truths are cached the same way. A thundering herd of identical
// cold requests runs each underlying computation exactly once: the
// first requester leads, the rest coalesce onto its in-flight slot (see
// cache). Request deadlines propagate end to end — the leader computes
// under its own request context, and a follower whose deadline expires
// abandons the wait without cancelling anyone else's work.
package predictor

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/memsim"
	"hpcmetrics/internal/metrics"
	"hpcmetrics/internal/par"
	"hpcmetrics/internal/probes"
	"hpcmetrics/internal/simexec"
	"hpcmetrics/internal/trace"
)

// ErrBadRequest marks request-validation failures — unknown application,
// case, machine, or metric, or an unusable processor count — so a server
// can map them to 400 instead of 500. Test with errors.Is.
var ErrBadRequest = errors.New("predictor: bad request")

// Request names one prediction cell.
type Request struct {
	// App and Case name the test case ("avus", "standard"); an empty
	// Case matches the application's first case, like the CLI.
	App  string
	Case string
	// Procs is the processor count; 0 means the test case's middle
	// (default) count.
	Procs int
	// Machine is the target system preset name.
	Machine string
	// MetricID is the paper Table 3 metric number (1-9).
	MetricID int
	// Observed additionally runs the ground-truth executor on the
	// target, filling ObservedSeconds/SignedErrorPct when the job fits.
	Observed bool
}

// Result is one answered prediction.
type Result struct {
	App     string `json:"app"`
	Case    string `json:"case"`
	Procs   int    `json:"procs"`
	Machine string `json:"machine"`

	MetricID    int    `json:"metric"`
	MetricLabel string `json:"metric_label"`
	MetricName  string `json:"metric_name"`

	// BaseMachine and BaseSeconds anchor the prediction: the observed
	// runtime on the base system that every metric scales from.
	BaseMachine string  `json:"base_machine"`
	BaseSeconds float64 `json:"base_seconds"`

	// PredictedSeconds is the metric's runtime prediction on Machine.
	PredictedSeconds float64 `json:"predicted_seconds"`

	// Fits reports whether the job fits on the machine at all; a
	// prediction is still produced for an oversized job (the paper's
	// blank appendix cells), there is just no ground truth to check.
	Fits bool `json:"fits"`
	// ObservedSeconds and SignedErrorPct carry the ground truth and the
	// paper's Equation 2 error; valid only when HasObserved.
	HasObserved     bool    `json:"has_observed"`
	ObservedSeconds float64 `json:"observed_seconds,omitempty"`
	SignedErrorPct  float64 `json:"signed_error_pct,omitempty"`

	// Cached reports whether the prediction came from the exact cache
	// (or a coalesced wait on another request's computation) rather
	// than this request leading a computation on any layer.
	Cached bool `json:"cached"`
	// Outcome classifies the request against the caches, taking the
	// coldest layer touched: "cold" when this request led at least one
	// underlying computation, "coalesced" when it led nothing but
	// waited on another request's in-flight computation, "cached" when
	// every layer was an exact settled hit.
	Outcome string `json:"outcome"`
}

// RankRequest asks for machines ordered fastest-first for one cell.
type RankRequest struct {
	App      string
	Case     string
	Procs    int
	MetricID int
	// Machines restricts and orders the candidate set; empty means the
	// study's ten target systems.
	Machines []string
	// Observed fills ground truths for every ranked machine.
	Observed bool
}

// Ranking is a rank response: entries sorted by predicted runtime,
// fastest first, ties broken by machine name.
type Ranking struct {
	App         string    `json:"app"`
	Case        string    `json:"case"`
	Procs       int       `json:"procs"`
	MetricID    int       `json:"metric"`
	MetricLabel string    `json:"metric_label"`
	Entries     []*Result `json:"ranking"`
}

// cellValue is the memoized per-(app, case, procs) work: the base-system
// ground truth and the trace, the two artifacts the paper stresses are
// collected "only once per application".
type cellValue struct {
	baseSeconds float64
	tr          *trace.Trace
}

// observation is the memoized per-(cell, machine) ground truth. A job
// too large for the machine is an answer, not a failure, so it is cached
// too: tooLarge holds the executor's simexec.ErrTooLarge.
type observation struct {
	seconds  float64
	tooLarge error
}

// Predictor serves predictions through the shared Engine with exact-hit
// memoization and request coalescing on every deterministic layer:
// probe suites per machine, (base run, trace) per cell, predictions per
// (cell, machine, metric), and ground truths per (cell, machine).
// Goroutine-safe; build with New.
type Predictor struct {
	eng     Engine
	base    *machine.Config
	workers int
	model   Model

	probeCache   *cache
	cellCache    *cache
	predictCache *cache
	observeCache *cache
	// counts memoizes memsim stream counts across every probe suite and
	// execution this Predictor runs (see memsim.Memo).
	counts *memsim.Memo
}

// Config tunes a Predictor.
type Config struct {
	// Workers bounds Rank's per-machine fan-out; 0 means GOMAXPROCS.
	Workers int
	// Model is the observation model; the zero value is the paper
	// reproduction.
	Model Model
}

// New returns a Predictor with empty caches, anchored to the study's
// base system.
func New(cfg Config) *Predictor {
	return &Predictor{
		base:         machine.Base(),
		workers:      cfg.Workers,
		model:        cfg.Model,
		probeCache:   newCache("predictor_probe_cache", "probes"),
		cellCache:    newCache("predictor_cell_cache", "cell"),
		predictCache: newCache("predictor_predict_cache", "predict"),
		observeCache: newCache("predictor_observe_cache", "observe"),
		counts:       memsim.NewMemo(),
	}
}

// outcomeAgg folds per-layer hitKinds into the request-level outcome:
// the coldest layer wins (cold > coalesced > cached).
type outcomeAgg struct {
	kind hitKind
	any  bool
}

func (a *outcomeAgg) add(k hitKind) {
	if !a.any {
		a.kind, a.any = k, true
		return
	}
	// hitMiss ("cold") dominates, then hitCoalesced, then hitSettled.
	rank := func(k hitKind) int {
		switch k {
		case hitMiss:
			return 2
		case hitCoalesced:
			return 1
		}
		return 0
	}
	if rank(k) > rank(a.kind) {
		a.kind = k
	}
}

// resolved is a validated request.
type resolved struct {
	tc     apps.TestCase
	procs  int
	target *machine.Config
	metric metrics.Metric
}

func (p *Predictor) resolve(app, caseName string, procs int, machineName string, metricID int) (resolved, error) {
	var r resolved
	tc, err := apps.Lookup(app, caseName)
	if err != nil {
		return r, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if procs == 0 {
		if procs, err = tc.DefaultProcs(); err != nil {
			return r, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	if procs < 1 {
		return r, fmt.Errorf("%w: procs %d, want >= 1", ErrBadRequest, procs)
	}
	target, err := machine.Preset(machineName)
	if err != nil {
		return r, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	m, err := metrics.ByID(metricID)
	if err != nil {
		return r, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return resolved{tc: tc, procs: procs, target: target, metric: m}, nil
}

// probesFor returns the machine's memoized probe suite.
func (p *Predictor) probesFor(ctx context.Context, cfg *machine.Config) (*probes.Results, hitKind, error) {
	v, kind, err := p.probeCache.get(ctx, cfg.Name, func(ctx context.Context) (any, error) {
		return p.eng.Probes(ctx, cfg)
	})
	if err != nil {
		return nil, kind, err
	}
	return v.(*probes.Results), kind, nil
}

// cellFor returns the cell's memoized base time and trace.
func (p *Predictor) cellFor(ctx context.Context, tc apps.TestCase, procs int) (cellValue, hitKind, error) {
	key := fmt.Sprintf("%s@%d", tc.ID(), procs)
	v, kind, err := p.cellCache.get(ctx, key, func(ctx context.Context) (any, error) {
		app, err := tc.Instance(procs)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		seconds, err := p.observe(ctx, key, app, p.base)
		if err != nil {
			return nil, err
		}
		tr, err := p.eng.Trace(ctx, p.base, app)
		if err != nil {
			return nil, err
		}
		if p.model.NoDependencyFlags {
			for i := range tr.Blocks {
				tr.Blocks[i].ILPLimited = false
			}
		}
		return cellValue{baseSeconds: seconds, tr: tr}, nil
	})
	if err != nil {
		return cellValue{}, kind, err
	}
	return v.(cellValue), kind, nil
}

// observeFor returns the cell's memoized ground truth on one machine.
func (p *Predictor) observeFor(ctx context.Context, tc apps.TestCase, procs int, target *machine.Config) (observation, hitKind, error) {
	cell := fmt.Sprintf("%s@%d", tc.ID(), procs)
	v, kind, err := p.observeCache.get(ctx, cell+"|"+target.Name, func(ctx context.Context) (any, error) {
		app, err := tc.Instance(procs)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		seconds, err := p.observe(ctx, cell, app, target)
		if errors.Is(err, simexec.ErrTooLarge) {
			return observation{tooLarge: err}, nil
		}
		if err != nil {
			return nil, err
		}
		return observation{seconds: seconds}, nil
	})
	if err != nil {
		return observation{}, kind, err
	}
	return v.(observation), kind, nil
}

// Probes returns the machine's probe suite, memoized by machine name.
func (p *Predictor) Probes(ctx context.Context, cfg *machine.Config) (*probes.Results, error) {
	pr, _, err := p.probesFor(p.counts.Inject(ctx), cfg)
	return pr, err
}

// Cell returns the cell's observed base-system time and its trace on the
// base system, memoized per (app, case, procs). The trace is shared with
// the cache and must not be modified.
func (p *Predictor) Cell(ctx context.Context, tc apps.TestCase, procs int) (float64, *trace.Trace, error) {
	c, _, err := p.cellFor(p.counts.Inject(ctx), tc, procs)
	return c.baseSeconds, c.tr, err
}

// Observe returns the cell's observed time on cfg, memoized per (cell,
// machine name). A job too large for cfg returns an error wrapping
// simexec.ErrTooLarge — a missing observation, like the paper's blank
// appendix cells.
func (p *Predictor) Observe(ctx context.Context, tc apps.TestCase, procs int, cfg *machine.Config) (float64, error) {
	o, _, err := p.observeFor(p.counts.Inject(ctx), tc, procs, cfg)
	if err != nil {
		return 0, err
	}
	return o.seconds, o.tooLarge
}

// Predict answers one request. Identical concurrent cold requests are
// coalesced: the probe suites, the base run + trace, and the prediction
// itself each run exactly once. The result's Outcome reports the
// coldest cache layer the request touched.
func (p *Predictor) Predict(ctx context.Context, req Request) (*Result, error) {
	r, err := p.resolve(req.App, req.Case, req.Procs, req.Machine, req.MetricID)
	if err != nil {
		return nil, err
	}
	ctx = p.counts.Inject(ctx)
	var agg outcomeAgg
	basePr, kind, err := p.probesFor(ctx, p.base)
	if err != nil {
		return nil, err
	}
	agg.add(kind)
	targetPr, kind, err := p.probesFor(ctx, r.target)
	if err != nil {
		return nil, err
	}
	agg.add(kind)
	cell, kind, err := p.cellFor(ctx, r.tc, r.procs)
	if err != nil {
		return nil, err
	}
	agg.add(kind)
	predKey := fmt.Sprintf("%s@%d|%s|%d", r.tc.ID(), r.procs, r.target.Name, r.metric.ID)
	v, kind, err := p.predictCache.get(ctx, predKey, func(ctx context.Context) (any, error) {
		return p.eng.PredictMetric(ctx, r.metric, metrics.Context{
			Trace: cell.tr, Base: basePr, Target: targetPr, BaseSeconds: cell.baseSeconds,
		})
	})
	if err != nil {
		return nil, err
	}
	agg.add(kind)
	res := &Result{
		App: r.tc.Name, Case: r.tc.Case, Procs: r.procs, Machine: r.target.Name,
		MetricID: r.metric.ID, MetricLabel: r.metric.Label(), MetricName: r.metric.Name,
		BaseMachine: p.base.Name, BaseSeconds: cell.baseSeconds,
		PredictedSeconds: v.(float64),
		Fits:             r.procs <= r.target.TotalProcs,
	}
	if req.Observed {
		o, kind, err := p.observeFor(ctx, r.tc, r.procs, r.target)
		if err != nil {
			return nil, err
		}
		agg.add(kind)
		res.Fits = o.tooLarge == nil
		if res.Fits {
			res.HasObserved = true
			res.ObservedSeconds = o.seconds
			res.SignedErrorPct = metrics.SignedError(res.PredictedSeconds, o.seconds)
		}
	}
	res.Outcome = agg.kind.String()
	res.Cached = agg.kind.cached()
	return res, nil
}

// Rank predicts the cell on every candidate machine — fanned out on the
// shared ctx-aware worker pool, bounded by Config.Workers — and returns
// the machines ordered fastest-first by predicted runtime.
func (p *Predictor) Rank(ctx context.Context, req RankRequest) (*Ranking, error) {
	names := req.Machines
	if len(names) == 0 {
		for _, cfg := range machine.StudyTargets() {
			names = append(names, cfg.Name)
		}
	}
	// Validate the whole request up front so a bad machine name is a
	// clean ErrBadRequest, not a joined pool error.
	r, err := p.resolve(req.App, req.Case, req.Procs, names[0], req.MetricID)
	if err != nil {
		return nil, err
	}
	for _, name := range names[1:] {
		if _, err := machine.Preset(name); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	entries := make([]*Result, len(names))
	err = par.ForEachIndexed(ctx, len(names), p.workers, "predictor", func(ctx context.Context, i int) error {
		res, err := p.Predict(ctx, Request{
			App: req.App, Case: req.Case, Procs: req.Procs,
			Machine: names[i], MetricID: req.MetricID, Observed: req.Observed,
		})
		if err != nil {
			return fmt.Errorf("rank %s: %w", names[i], err)
		}
		entries[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].PredictedSeconds < entries[j].PredictedSeconds {
			return true
		}
		if entries[j].PredictedSeconds < entries[i].PredictedSeconds {
			return false
		}
		return entries[i].Machine < entries[j].Machine
	})
	return &Ranking{
		App: r.tc.Name, Case: r.tc.Case, Procs: r.procs,
		MetricID: r.metric.ID, MetricLabel: r.metric.Label(),
		Entries: entries,
	}, nil
}

// CacheStat is one memoization layer's live view: how many keys it
// holds and how traffic against it resolved.
type CacheStat struct {
	// Keys is the layer's keyspace size (settled + in-flight slots).
	Keys int `json:"keys"`
	// Hits counts exact settled hits; Misses counts led computations;
	// Coalesced counts waits on another request's in-flight slot.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	// Evictions counts entries pushed out by a bounded layer's capacity.
	Evictions int64 `json:"evictions,omitempty"`
}

// CacheStats reports each memoization layer's keyspace size and
// hit/miss/coalesce traffic — the backing for /v1/cache and /v1/status.
// The counts are the predictor's own (process-lifetime), independent of
// any obs registry on request contexts. The "counts" layer is the
// memsim stream-count memo beneath the probe and execution layers.
func (p *Predictor) CacheStats() map[string]CacheStat {
	counts := p.counts.Snapshot()
	return map[string]CacheStat{
		"probes":       p.probeCache.stat(),
		"cells":        p.cellCache.stat(),
		"predictions":  p.predictCache.stat(),
		"observations": p.observeCache.stat(),
		"counts": {
			Keys: counts.Keys, Hits: counts.Hits, Misses: counts.Misses,
			Coalesced: counts.Coalesced, Evictions: counts.Evictions,
		},
	}
}
