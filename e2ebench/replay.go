package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/metrics"
	"hpcmetrics/internal/par"
	"hpcmetrics/internal/predictor"
	"hpcmetrics/internal/probes"
	"hpcmetrics/internal/simexec"
	"hpcmetrics/internal/trace"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call — the program itself is not instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// timed runs fn inside a new span under parent, passing fn the span's
// ID so it can open child spans, and returns fn's error.
func (rec *recorder) timed(parent int, name string, fn func(id int) error) error {
	rec.mu.Lock()
	id := len(rec.spans) + 1
	rec.spans = append(rec.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(rec.t0).Nanoseconds()})
	rec.mu.Unlock()
	err := fn(id)
	end := time.Since(rec.t0).Nanoseconds()
	rec.mu.Lock()
	rec.spans[id-1].End = end
	rec.mu.Unlock()
	return err
}

// layerTimes sums, per span name, the inclusive time, the self time (a
// span's duration minus the union of its children's intervals, so
// children running in parallel are not counted twice) and the call count.
type layerTimes struct {
	total, self map[string]float64 // seconds
	calls       map[string]int
	allSelf     float64
}

func selfTimes(spans []span) layerTimes {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	lt := layerTimes{total: map[string]float64{}, self: map[string]float64{}, calls: map[string]int{}}
	for _, s := range spans {
		dur := s.End - s.Start
		self := float64(dur-covered(children[s.ID])) / 1e9
		lt.total[s.Name] += float64(dur) / 1e9
		lt.self[s.Name] += self
		lt.calls[s.Name]++
		lt.allSelf += self
	}
	return lt
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var sum, curStart, curEnd int64
	open := false
	for _, s := range iv {
		switch {
		case !open:
			curStart, curEnd, open = s.Start, s.End, true
		case s.Start > curEnd:
			sum += curEnd - curStart
			curStart, curEnd = s.Start, s.End
		case s.End > curEnd:
			curEnd = s.End
		}
	}
	if open {
		sum += curEnd - curStart
	}
	return sum
}

// snapshot copies the spans recorded so far.
func (rec *recorder) snapshot() []span {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]span(nil), rec.spans...)
}

// write writes the spans as JSON lines.
func (rec *recorder) write(path string) error {
	spans := rec.snapshot()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// grid is the work a workload asks of the compute layers: probe the base
// and every target, run and trace every cell on the base, optionally
// observe every cell on every target, and predict every cell on every
// target with all nine metrics.
type grid struct {
	base    *machine.Config
	targets []*machine.Config
	cells   []gridCell
	observe bool
	workers int
}

type gridCell struct {
	tc    apps.TestCase
	procs int
}

// replayGrid replays g through the same public calls the study and the
// predictor make — predictor.Engine's Probes, Execute, Trace and
// PredictMetric — on a worker pool of g.workers, with a span around every
// call. It reports each layer's inclusive and self time, call count and
// share of all self time, the replay's wall time and its overhead
// against untracedWall (the untraced run of the same workload), and
// writes the spans to the run's span log.
func replayGrid(ctx context.Context, e env, g grid, untracedWall float64, r *report) error {
	var eng predictor.Engine
	rec := newRecorder()
	machines := append([]*machine.Config{g.base}, g.targets...)
	prs := make([]*probes.Results, len(machines))
	type cellOut struct {
		base float64
		tr   *trace.Trace
		fits map[string]bool
	}
	outs := make([]cellOut, len(g.cells))
	var tooLarge int
	var mu sync.Mutex // guards tooLarge

	err := rec.timed(0, "replay", func(root int) error {
		err := par.ForEachIndexed(ctx, len(machines), g.workers, "replay", func(ctx context.Context, i int) error {
			return rec.timed(root, "probes", func(int) error {
				var err error
				prs[i], err = eng.Probes(ctx, machines[i])
				return err
			})
		})
		if err != nil {
			return err
		}
		err = par.ForEachIndexed(ctx, len(g.cells), g.workers, "replay", func(ctx context.Context, i int) error {
			c := g.cells[i]
			app, err := c.tc.Instance(c.procs)
			if err != nil {
				return err
			}
			return rec.timed(root, "cell", func(cell int) error {
				out := cellOut{fits: map[string]bool{}}
				if err := rec.timed(cell, "simexec", func(int) error {
					run, err := eng.Execute(ctx, g.base, app)
					if err == nil {
						out.base = run.Seconds
					}
					return err
				}); err != nil {
					return err
				}
				if err := rec.timed(cell, "trace", func(int) error {
					var err error
					out.tr, err = eng.Trace(ctx, g.base, app)
					return err
				}); err != nil {
					return err
				}
				for _, cfg := range g.targets {
					if !g.observe {
						out.fits[cfg.Name] = true
						continue
					}
					err := rec.timed(cell, "simexec", func(int) error {
						_, err := eng.Execute(ctx, cfg, app)
						return err
					})
					switch {
					case errors.Is(err, simexec.ErrTooLarge):
						mu.Lock()
						tooLarge++
						mu.Unlock()
					case err != nil:
						return err
					default:
						out.fits[cfg.Name] = true
					}
				}
				outs[i] = out
				return nil
			})
		})
		if err != nil {
			return err
		}
		for _, m := range metrics.All() {
			for i := range g.cells {
				for j, cfg := range g.targets {
					if !outs[i].fits[cfg.Name] {
						continue
					}
					mctx := metrics.Context{Trace: outs[i].tr, Base: prs[0], Target: prs[j+1], BaseSeconds: outs[i].base}
					if err := rec.timed(root, "metrics", func(int) error {
						_, err := eng.PredictMetric(ctx, m, mctx)
						return err
					}); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	r.check(err)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}

	lt := selfTimes(rec.snapshot())
	wall := lt.total["replay"]
	r.values["replay.s"] = wall
	r.values["replay.trace_overhead"] = wall/untracedWall - 1
	// Each layer's inclusive-time metric, keyed by its span name.
	for layer, totalName := range map[string]string{
		"probes": "probes.measure_s", "trace": "trace.collect_s", "simexec": "simexec.execute_s",
	} {
		r.values[totalName] = lt.total[layer]
		r.values[layer+".calls"] = float64(lt.calls[layer])
		r.values[layer+".self_s"] = lt.self[layer]
		r.values[layer+".self_share"] = lt.self[layer] / lt.allSelf
	}
	r.values["simexec.too_large"] = float64(tooLarge)
	r.values["metrics.calls"] = float64(lt.calls["metrics"])
	r.values["metrics.predict_us"] = 0
	if n := lt.calls["metrics"]; n > 0 {
		r.values["metrics.predict_us"] = lt.total["metrics"] / float64(n) * 1e6
	}
	return rec.write(filepath.Join(e.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed)))
}
