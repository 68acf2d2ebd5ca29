package access

// Detector classifies an address stream into stride bins the way the
// paper's tracer does: it tracks a small table of recently seen access
// streams and matches each new reference against them by delta. A match at
// one element is stride-1; a match at 2..MaxShortStride elements is a short
// stride; anything that matches no tracked stream is random. The table is
// LRU-managed, so the frequently hit unit/short walkers of a loop stay
// resident while one-off random targets churn through a victim slot, as in
// hardware stream detectors.
//
// The Detector also estimates the stream's working set by counting distinct
// lines at a fixed granularity, and its store fraction.
type Detector struct {
	trackers []tracker
	clock    uint64
	counts   [numClasses]int64
	stores   int64
	total    int64
	lines    lineSet
	gran     int64
}

type tracker struct {
	lastAddr uint64
	lastUsed uint64
	valid    bool
}

// DefaultTrackers is the stream-table size; 16 covers the handful of
// concurrent array walks a scientific loop body sustains.
const DefaultTrackers = 16

// wsGranularity is the line size used for working-set estimation. 64 bytes
// is the smallest line among the study machines, so the estimate is
// conservative for all of them.
const wsGranularity = 64

// NewDetector returns a detector with n stream trackers (DefaultTrackers
// if n <= 0).
func NewDetector(n int) *Detector {
	return NewDetectorGranularity(n, wsGranularity)
}

// NewDetectorGranularity is NewDetector with a chosen working-set counting
// granularity in bytes. The distinct lines are counted exactly in a
// sparse bitset that costs one 512-byte page for every 4096-line range
// the stream touches, so a coarser granularity covers more bytes per
// page: long traces (the tracer observes millions of references) use one
// to bound the set's memory while keeping the estimate within a factor
// adequate for cache-size comparisons.
func NewDetectorGranularity(n int, granularity int64) *Detector {
	if n <= 0 {
		n = DefaultTrackers
	}
	if granularity <= 0 {
		granularity = wsGranularity
	}
	return &Detector{
		trackers: make([]tracker, n),
		lines:    lineSet{pages: make(map[uint64]*linePage)},
		gran:     granularity,
	}
}

// Observe classifies one reference and folds it into the summary,
// returning the class assigned.
func (d *Detector) Observe(ref Ref) Class {
	d.clock++
	d.total++
	if ref.Store {
		d.stores++
	}
	d.lines.add(ref.Addr / uint64(d.gran))

	const maxDelta = MaxShortStride * ElemBytes
	class := ClassRandom
	matched := -1
	for i := range d.trackers {
		t := &d.trackers[i]
		if !t.valid {
			continue
		}
		delta := int64(ref.Addr) - int64(t.lastAddr)
		if delta < 0 {
			delta = -delta
		}
		if delta > maxDelta {
			continue
		}
		// Same element or the adjacent one is contiguous access; any
		// other delta in short range, sub-element misalignment included,
		// walks the same lines as a short stride.
		class = ClassShort
		if delta <= ElemBytes {
			class = ClassUnit
		}
		matched = i
		break
	}

	if matched >= 0 {
		d.trackers[matched].lastAddr = ref.Addr
		d.trackers[matched].lastUsed = d.clock
	} else {
		// Allocate the LRU slot for a potential new stream.
		lru, lruUsed := 0, ^uint64(0)
		for i := range d.trackers {
			if !d.trackers[i].valid {
				lru = i
				break
			}
			if d.trackers[i].lastUsed < lruUsed {
				lru, lruUsed = i, d.trackers[i].lastUsed
			}
		}
		d.trackers[lru] = tracker{lastAddr: ref.Addr, lastUsed: d.clock, valid: true}
	}

	d.counts[class]++
	return class
}

// lineSet counts distinct line numbers exactly. Lines are grouped into
// pages of 1<<pageBits lines held as bitmaps in a map, and a small
// direct-mapped cache of recently used pages spares the map lookup for
// the handful of pages a loop's walkers are in at any moment.
type lineSet struct {
	pages    map[uint64]*linePage
	cache    [1 << pageCacheBits]pageCacheEntry
	distinct int64
}

const (
	pageBits      = 12 // 4096 lines per page
	pageCacheBits = 3  // 8 cached pages
)

// linePage is the bitmap of one page's lines: 512 bytes.
type linePage [(1 << pageBits) / 64]uint64

type pageCacheEntry struct {
	key  uint64
	page *linePage // nil while the slot is empty
}

// add records a line, counting it if it is new.
func (s *lineSet) add(line uint64) {
	key := line >> pageBits
	// Fibonacci hashing spreads consecutive page numbers over the slots.
	e := &s.cache[(key*0x9e3779b97f4a7c15)>>(64-pageCacheBits)]
	if e.page == nil || e.key != key {
		p := s.pages[key]
		if p == nil {
			p = new(linePage)
			s.pages[key] = p
		}
		e.key, e.page = key, p
	}
	bit := line & (1<<pageBits - 1)
	word, mask := &e.page[bit/64], uint64(1)<<(bit%64)
	if *word&mask == 0 {
		*word |= mask
		s.distinct++
	}
}

// Summary is the detector's verdict over everything observed so far.
type Summary struct {
	Total           int64
	Counts          [3]int64 // indexed by Class
	WorkingSetBytes int64
	StoreFraction   float64
}

// Mix converts the observed counts into a stride mixture. A summary with
// no references reports an all-unit mix.
func (s Summary) Mix() Mix {
	if s.Total == 0 {
		return Mix{Unit: 1}
	}
	t := float64(s.Total)
	return Mix{
		Unit:   float64(s.Counts[ClassUnit]) / t,
		Short:  float64(s.Counts[ClassShort]) / t,
		Random: float64(s.Counts[ClassRandom]) / t,
	}
}

// Summary returns the accumulated classification.
func (d *Detector) Summary() Summary {
	var s Summary
	s.Total = d.total
	for c := Class(0); c < numClasses; c++ {
		s.Counts[c] = d.counts[c]
	}
	s.WorkingSetBytes = d.lines.distinct * d.gran
	if d.total > 0 {
		s.StoreFraction = float64(d.stores) / float64(d.total)
	}
	return s
}

// Analyze classifies a whole stream with a default-sized detector.
func Analyze(refs []Ref) Summary {
	d := NewDetector(0)
	for _, r := range refs {
		d.Observe(r)
	}
	return d.Summary()
}
