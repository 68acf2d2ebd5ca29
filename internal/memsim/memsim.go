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
//
// Each cache level keeps its tags in one flat []uint64 strided by the
// associativity: set s occupies ways [s*ways, (s+1)*ways), most recently
// used first. A way holds the line number with the dirty bit packed into
// bit 63, and emptyWay marks a way not yet filled; filled ways always
// precede empty ones. A hit moves its way to the front and a fill shifts
// the set down by one, dropping the last (least recently used) way. Line
// numbers must leave bits 62 and 63 clear for this packing, so New
// refuses lines shorter than 4 bytes.
package memsim

import (
	"fmt"

	"hpcmetrics/internal/machine"
)

type cacheLevel struct {
	cfg      machine.CacheLevel
	tags     []uint64 // ways-strided sets, MRU first (see the package doc)
	setMask  uint64
	ways     int
	lineShft uint
}

const (
	// dirtyBit marks a way whose line has been stored to.
	dirtyBit = uint64(1) << 63
	// emptyWay marks a way that holds no line; with bit 62 of every line
	// number clear it equals no filled way, dirty or clean.
	emptyWay = ^uint64(0)
	// minLineBytes keeps bit 62 of every line number clear: a 64-bit
	// address shifted right by at least two bits.
	minLineBytes = 4
)

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
		if lc.LineBytes < minLineBytes {
			return nil, fmt.Errorf("memsim: cache %s: line size %d below the %d-byte minimum", lc.Name, lc.LineBytes, minLineBytes)
		}
		lvl := &cacheLevel{cfg: lc, ways: lc.Assoc}
		if lvl.ways <= 0 {
			lvl.ways = int(lc.SizeBytes / lc.LineBytes) // fully associative
		}
		nSets := lc.SizeBytes / (lc.LineBytes * int64(lvl.ways))
		lvl.tags = make([]uint64, nSets*int64(lvl.ways))
		lvl.clear()
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
		lvl.clear()
	}
	s.pf.reset()
	if s.tlb != nil {
		s.tlb.reset()
	}
	s.stats = newStats(len(s.levels))
}

// clear empties every way.
func (l *cacheLevel) clear() {
	for i := range l.tags {
		l.tags[i] = emptyWay
	}
}

// set returns the ways of the set the line maps to.
func (l *cacheLevel) set(line uint64) []uint64 {
	base := int(line&l.setMask) * l.ways
	return l.tags[base : base+l.ways : base+l.ways]
}

// lookup probes one level; on hit the line moves to MRU position and dirty
// is ORed with store.
func (l *cacheLevel) lookup(addr uint64, store bool) bool {
	line := addr >> l.lineShft
	set := l.set(line)
	for i, w := range set {
		if w&^dirtyBit == line {
			if store {
				w |= dirtyBit
			}
			// Move to front (MRU).
			copy(set[1:i+1], set[:i])
			set[0] = w
			return true
		}
		if w == emptyWay {
			return false // filled ways all precede the empty ones
		}
	}
	return false
}

// fill inserts the line at MRU, evicting the LRU line if the set is full.
// It reports whether a dirty line was evicted.
func (l *cacheLevel) fill(addr uint64, store bool) (evictedDirty bool) {
	line := addr >> l.lineShft
	set := l.set(line)
	last := set[len(set)-1]
	evictedDirty = last != emptyWay && last&dirtyBit != 0
	copy(set[1:], set)
	if store {
		line |= dirtyBit
	}
	set[0] = line
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
