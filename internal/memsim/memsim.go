// Package memsim simulates a machine's memory hierarchy.
//
// The simulator has two halves. Counting (Simulator, Count) runs a
// byte-address reference stream through the machine's caches,
// prefetcher and TLB and yields Stats; it depends only on the counter
// geometry. Pricing (Price) turns Stats into cycles and seconds under
// the machine's clock, latencies, bandwidths and memory-level
// parallelism. Because counting is the expensive half, a Memo carried in
// the context counts each (geometry, stream, length) once and lets every
// machine and pricing option that shares the geometry reuse it. The
// halves together model:
//
//   - multi-level inclusive set-associative caches with LRU replacement
//     and write-allocate stores;
//   - a stride prefetcher trained on the miss stream (references whose
//     line fill the prefetcher predicted are "covered": they cost memory
//     bandwidth rather than exposed latency);
//   - a data TLB with CLOCK (second-chance) replacement;
//   - a timing model that prices each reference by the level that served
//     it — issue-limited at L1, bandwidth-limited when covered,
//     latency-limited (divided by the machine's memory-level parallelism)
//     when not — plus write-back traffic.
//
// This simulator is the "real machine" of the study: both the ground-truth
// application executor and the synthetic memory probes (STREAM, GUPS,
// MAPS) run on it, so observed times and probe rates are self-consistent,
// as they are on real hardware.
package memsim

import (
	"fmt"

	"hpcmetrics/internal/machine"
)

// cacheSet holds the lines of one set in MRU-first order.
type cacheSet struct {
	tags  []uint64
	dirty []bool
}

type cacheLevel struct {
	cfg      machine.CacheLevel
	sets     []cacheSet
	setMask  uint64
	ways     int
	lineShft uint
}

// Stats counts what happened to the reference stream.
type Stats struct {
	Refs   int64
	Stores int64
	// ServedBy[i] counts references served at cache level i; the final
	// element counts references served by main memory.
	ServedBy []int64
	// Covered[i] counts the ServedBy[i] references whose fill the
	// prefetcher had predicted (i >= 1; Covered[0] is always zero).
	Covered []int64
	// Writebacks counts dirty lines evicted from the outermost cache.
	Writebacks int64
	// TLBMisses counts data-TLB misses.
	TLBMisses int64
}

// MissRate returns the fraction of references served by main memory.
func (s Stats) MissRate() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.ServedBy[len(s.ServedBy)-1]) / float64(s.Refs)
}

// Simulator drives one processor's memory hierarchy.
type Simulator struct {
	cfg    *machine.Config
	levels []*cacheLevel
	pf     *prefetcher
	tlb    *tlb
	stats  Stats
}

// New builds a simulator for the machine. The config must validate.
func New(cfg *machine.Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("memsim: %w", err)
	}
	s := &Simulator{cfg: cfg}
	for _, lc := range cfg.Caches {
		lvl := &cacheLevel{cfg: lc, ways: lc.Assoc}
		if lvl.ways <= 0 {
			lvl.ways = int(lc.SizeBytes / lc.LineBytes) // fully associative
		}
		nSets := lc.SizeBytes / (lc.LineBytes * int64(lvl.ways))
		lvl.sets = make([]cacheSet, nSets)
		lvl.setMask = uint64(nSets - 1)
		for b := lc.LineBytes; b > 1; b >>= 1 {
			lvl.lineShft++
		}
		s.levels = append(s.levels, lvl)
	}
	s.pf = newPrefetcher(cfg.PrefetchStreams, cfg.PrefetchMaxStride)
	if cfg.TLBEntries > 0 {
		s.tlb = newTLB(cfg.TLBEntries, cfg.PageBytes)
	}
	s.stats = newStats(len(s.levels))
	return s, nil
}

func newStats(levels int) Stats {
	return Stats{
		ServedBy: make([]int64, levels+1),
		Covered:  make([]int64, levels+1),
	}
}

// Reset clears cache contents, prefetcher state, TLB, and statistics.
func (s *Simulator) Reset() {
	for _, lvl := range s.levels {
		for i := range lvl.sets {
			lvl.sets[i].tags = lvl.sets[i].tags[:0]
			lvl.sets[i].dirty = lvl.sets[i].dirty[:0]
		}
	}
	s.pf.reset()
	if s.tlb != nil {
		s.tlb.reset()
	}
	s.stats = newStats(len(s.levels))
}

// lookup probes one level; on hit the line moves to MRU position and dirty
// is ORed with store.
func (l *cacheLevel) lookup(addr uint64, store bool) bool {
	line := addr >> l.lineShft
	set := &l.sets[line&l.setMask]
	for i, tag := range set.tags {
		if tag == line {
			d := set.dirty[i] || store
			// Move to front (MRU).
			copy(set.tags[1:i+1], set.tags[:i])
			copy(set.dirty[1:i+1], set.dirty[:i])
			set.tags[0], set.dirty[0] = line, d
			return true
		}
	}
	return false
}

// fill inserts the line at MRU, evicting the LRU line if the set is full.
// It reports whether a dirty line was evicted.
func (l *cacheLevel) fill(addr uint64, store bool) (evictedDirty bool) {
	line := addr >> l.lineShft
	set := &l.sets[line&l.setMask]
	if len(set.tags) >= l.ways {
		last := len(set.tags) - 1
		evictedDirty = set.dirty[last]
		set.tags = set.tags[:last]
		set.dirty = set.dirty[:last]
	}
	set.tags = append(set.tags, 0)
	set.dirty = append(set.dirty, false)
	copy(set.tags[1:], set.tags)
	copy(set.dirty[1:], set.dirty)
	set.tags[0], set.dirty[0] = line, store
	return evictedDirty
}

// Access runs one reference through the hierarchy.
func (s *Simulator) Access(addr uint64, store bool) {
	s.stats.Refs++
	if store {
		s.stats.Stores++
	}
	if s.tlb != nil && !s.tlb.access(addr) {
		s.stats.TLBMisses++
	}

	served := len(s.levels) // memory unless a cache hits
	for i, lvl := range s.levels {
		if lvl.lookup(addr, store) {
			served = i
			break
		}
	}

	if served == 0 {
		s.stats.ServedBy[0]++
		return
	}

	// Miss in at least L1: train the prefetcher on the L1 miss-line stream
	// and ask whether this fill was predicted.
	covered := s.pf.observeMiss(addr >> s.levels[0].lineShft)
	s.stats.ServedBy[served]++
	if covered {
		s.stats.Covered[served]++
	}

	// Fill every level inside the serving one (inclusive hierarchy). When
	// memory served the reference this fills all cache levels.
	for i := served - 1; i >= 0; i-- {
		evictedDirty := s.levels[i].fill(addr, store)
		if evictedDirty && i == len(s.levels)-1 {
			s.stats.Writebacks++
		}
	}
}

// ResetStats clears the counters but keeps cache, prefetcher, and TLB
// state, so a warmed simulator can start a timed section.
func (s *Simulator) ResetStats() {
	s.stats = newStats(len(s.levels))
}

// Stats returns a copy of the accumulated counters.
func (s *Simulator) Stats() Stats { return s.stats.clone() }

// clone returns a deep copy of the counters.
func (s Stats) clone() Stats {
	s.ServedBy = append([]int64(nil), s.ServedBy...)
	s.Covered = append([]int64(nil), s.Covered...)
	return s
}

// Machine returns the configuration the simulator was built from.
func (s *Simulator) Machine() *machine.Config { return s.cfg }
