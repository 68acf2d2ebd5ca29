package memsim

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/obs"
)

// MemoCapacity bounds how many settled counts a Memo holds. The full
// study (every probe suite on the base and the ten targets, every cell
// executed on each of them) counts 624 distinct streams, so one study
// run never evicts.
const MemoCapacity = 4096

// Memo memoizes Count by (counter geometry, stream spec, n). Counters do
// not depend on a machine's clock, latencies, bandwidths or memory-level
// parallelism, so machines that share a cache hierarchy, prefetcher and
// TLB — and a machine and its Loaded() variant — share every count, and
// the ENHANCED MAPS sweeps reuse the plain MAPS counts outright.
//
// The first caller of an absent key counts it under its own goroutine;
// callers arriving while that count is in flight wait for it instead of
// counting again. Errors are never cached. Every caller gets its own copy
// of the counters. When more than MemoCapacity counts have settled, the
// oldest settled one is evicted.
//
// A Memo travels in a context (Inject, MemoFrom) and is scoped to one
// owner — a study run, a Predictor, a probe suite — never to the process.
// Goroutine-safe; build with NewMemo.
type Memo struct {
	capacity int

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64

	mu      sync.Mutex
	entries map[countKey]*countEntry // guarded by mu
	settled []countKey               // guarded by mu; oldest first
}

// countKey identifies one count. geometry is geometryOf's encoding of
// the counting fields of the machine.
type countKey struct {
	geometry string
	spec     access.StreamSpec
	n        int
}

// countEntry is one memo slot. done is closed once the count settles;
// stats and err are written exactly once, before the close.
type countEntry struct {
	done  chan struct{}
	stats Stats
	err   error
}

// NewMemo returns an empty memo holding at most MemoCapacity counts.
func NewMemo() *Memo { return newMemo(MemoCapacity) }

func newMemo(capacity int) *Memo {
	return &Memo{capacity: capacity, entries: make(map[countKey]*countEntry)}
}

// geometryOf encodes every machine field the counters depend on: each
// cache level's size, line and associativity, the prefetcher, and the
// TLB. Varints are self-delimiting, so distinct geometries never share
// an encoding.
func geometryOf(cfg *machine.Config) string {
	b := binary.AppendUvarint(nil, uint64(len(cfg.Caches)))
	for _, c := range cfg.Caches {
		b = binary.AppendVarint(b, c.SizeBytes)
		b = binary.AppendVarint(b, c.LineBytes)
		b = binary.AppendVarint(b, int64(c.Assoc))
	}
	b = binary.AppendVarint(b, int64(cfg.PrefetchStreams))
	b = binary.AppendVarint(b, cfg.PrefetchMaxStride)
	b = binary.AppendVarint(b, int64(cfg.TLBEntries))
	b = binary.AppendVarint(b, cfg.PageBytes)
	return string(b)
}

// Count returns Count(cfg, spec, n), counting only when no machine of the
// same counter geometry has counted the stream before. A nil Memo counts
// directly. Traffic goes to the context's obs meter as
// memsim_count_{hits,misses,coalesced,evictions}_total.
func (m *Memo) Count(ctx context.Context, cfg *machine.Config, spec access.StreamSpec, n int) (Stats, error) {
	if m == nil {
		return Count(cfg, spec, n)
	}
	// The key omits the pricing fields, so a hit must not excuse a
	// machine that Count would reject.
	if err := cfg.Validate(); err != nil {
		return Stats{}, fmt.Errorf("memsim: %w", err)
	}
	key := countKey{geometry: geometryOf(cfg), spec: spec, n: n}
	meter := obs.From(ctx).Meter()

	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok {
		e = &countEntry{done: make(chan struct{})}
		m.entries[key] = e
		m.mu.Unlock()
		m.misses.Add(1)
		meter.Counter("memsim_count_misses_total").Inc()
		e.stats, e.err = Count(cfg, spec, n)
		evicted := m.settle(key, e.err)
		close(e.done)
		if evicted {
			m.evictions.Add(1)
			meter.Counter("memsim_count_evictions_total").Inc()
		}
		if e.err != nil {
			return Stats{}, e.err
		}
		return e.stats.clone(), nil
	}
	m.mu.Unlock()

	select {
	case <-e.done:
		if e.err == nil {
			m.hits.Add(1)
			meter.Counter("memsim_count_hits_total").Inc()
		}
	default:
		m.coalesced.Add(1)
		meter.Counter("memsim_count_coalesced_total").Inc()
		select {
		case <-e.done:
		case <-ctx.Done():
			return Stats{}, ctx.Err()
		}
	}
	if e.err != nil {
		return Stats{}, e.err
	}
	return e.stats.clone(), nil
}

// settle records the leader's outcome: a failed count leaves the memo,
// a successful one joins the eviction order, pushing out the oldest
// settled count when the memo is over capacity. It reports whether a
// count was evicted.
func (m *Memo) settle(key countKey, err error) (evicted bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		delete(m.entries, key)
		return false
	}
	m.settled = append(m.settled, key)
	if len(m.settled) <= m.capacity {
		return false
	}
	delete(m.entries, m.settled[0])
	m.settled = m.settled[1:]
	return true
}

// MemoStats is a snapshot of a Memo's size and traffic.
type MemoStats struct {
	// Keys counts settled and in-flight counts.
	Keys int
	// Hits counts settled hits; Misses counts counts run; Coalesced
	// counts waits on another caller's in-flight count; Evictions counts
	// settled counts pushed out by capacity.
	Hits, Misses, Coalesced, Evictions int64
}

// Snapshot reports the memo's size and traffic so far.
func (m *Memo) Snapshot() MemoStats {
	m.mu.Lock()
	keys := len(m.entries)
	m.mu.Unlock()
	return MemoStats{
		Keys:      keys,
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Coalesced: m.coalesced.Load(),
		Evictions: m.evictions.Load(),
	}
}

// memoCtx carries a Memo down the pipeline, like obs and faults carry
// theirs: a dedicated carrier answers only its own key.
type memoCtx struct {
	context.Context
	m *Memo
}

type memoKey struct{}

// Value returns the carried Memo for memoKey and defers everything else.
func (c *memoCtx) Value(key any) any {
	if _, ok := key.(memoKey); ok {
		return c.m
	}
	return c.Context.Value(key)
}

// Inject returns a context carrying m. A nil Memo returns ctx unchanged.
func (m *Memo) Inject(ctx context.Context) context.Context {
	if m == nil {
		return ctx
	}
	return &memoCtx{Context: ctx, m: m}
}

// MemoFrom returns the Memo carried by ctx, or nil.
func MemoFrom(ctx context.Context) *Memo {
	m, _ := ctx.Value(memoKey{}).(*Memo)
	return m
}
