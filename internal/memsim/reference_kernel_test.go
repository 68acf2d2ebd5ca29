package memsim

import (
	"fmt"

	"hpcmetrics/internal/machine"
)

// This file keeps the cache kernel as it was before the flat tag layout:
// per-set tag and dirty slices that lookup and fill append to and copy
// within. referenceSimulator drives it with the production prefetcher
// and TLB, so it differs from Simulator only in the cache kernel, and
// the differential tests (split_test.go) hold the production kernel to
// it bit for bit.

// cacheSet holds the lines of one set in MRU-first order.
type cacheSet struct {
	tags  []uint64
	dirty []bool
}

type referenceLevel struct {
	cfg      machine.CacheLevel
	sets     []cacheSet
	setMask  uint64
	ways     int
	lineShft uint
}

type referenceSimulator struct {
	cfg    *machine.Config
	levels []*referenceLevel
	pf     *prefetcher
	tlb    *tlb
	stats  Stats
}

func newReferenceSimulator(cfg *machine.Config) (*referenceSimulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("memsim: %w", err)
	}
	s := &referenceSimulator{cfg: cfg}
	for _, lc := range cfg.Caches {
		lvl := &referenceLevel{cfg: lc, ways: lc.Assoc}
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

// lookup probes one level; on hit the line moves to MRU position and dirty
// is ORed with store.
func (l *referenceLevel) lookup(addr uint64, store bool) bool {
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
func (l *referenceLevel) fill(addr uint64, store bool) (evictedDirty bool) {
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
func (s *referenceSimulator) Access(addr uint64, store bool) {
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
// state.
func (s *referenceSimulator) ResetStats() {
	s.stats = newStats(len(s.levels))
}

// Stats returns a copy of the accumulated counters.
func (s *referenceSimulator) Stats() Stats { return s.stats.clone() }
