package access

import (
	"math"
	"math/rand/v2"
	"testing"
)

// This file keeps the access kernels as they were before the integer
// threshold draws, the modulo-free walkers and the bitset footprint set:
// the float-draw generator step and the map-based detector. They are the references the
// production kernels must match reference for reference and summary for
// summary.

// float64 returns a uniform value in [0,1), the draw the reference
// generator compares against its probabilities.
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// floatGenerator is the generator step with float draws and modulo
// walker positions. It drives a generator of its own for the stream's
// constants, rng and class schedule (pickClass), and keeps the walker
// positions in the unreduced form the modulo step needs.
type floatGenerator struct {
	*generator
	unitPos, shortPos, hotPos int64
}

func (g *floatGenerator) floatNext() Ref {
	if g.spec.HotFraction > 0 && g.r.float64() < g.spec.HotFraction {
		addr := g.base + uint64(3)<<27 + uint64(g.hotPos%g.hotElems)*ElemBytes
		g.hotPos++
		return Ref{Addr: addr, Store: g.r.float64() < g.spec.StoreFraction}
	}
	var addr uint64
	switch g.pickClass() {
	case ClassUnit:
		addr = g.base + uint64(g.unitPos%g.elems)*ElemBytes
		g.unitPos++
	case ClassShort:
		addr = g.base + uint64(1)<<27 + uint64(g.shortPos%g.elems)*ElemBytes
		g.shortPos += g.stride
	default:
		addr = g.base + uint64(2)<<27 + uint64(g.r.intn(g.spread))*ElemBytes
	}
	return Ref{Addr: addr, Store: g.r.float64() < g.spec.StoreFraction}
}

// referenceGenerate is Generate driven by the float-draw generator.
func referenceGenerate(spec StreamSpec, n int) ([]Ref, error) {
	g, err := newGenerator(spec)
	if err != nil {
		return nil, err
	}
	fg := &floatGenerator{generator: g}
	out := make([]Ref, n)
	for i := range out {
		out[i] = fg.floatNext()
	}
	return out, nil
}

// mapDetector is the detector with its footprint in a map of lines.
type mapDetector struct {
	trackers []tracker
	clock    uint64
	counts   [numClasses]int64
	stores   int64
	total    int64
	lines    map[uint64]struct{}
	gran     int64
}

func newMapDetector(n int, granularity int64) *mapDetector {
	if n <= 0 {
		n = DefaultTrackers
	}
	if granularity <= 0 {
		granularity = wsGranularity
	}
	return &mapDetector{
		trackers: make([]tracker, n),
		lines:    make(map[uint64]struct{}),
		gran:     granularity,
	}
}

func (d *mapDetector) Observe(ref Ref) Class {
	d.clock++
	d.total++
	if ref.Store {
		d.stores++
	}
	d.lines[ref.Addr/uint64(d.gran)] = struct{}{}

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
		switch {
		case delta <= ElemBytes:
			// Same element or the adjacent one: contiguous access.
			class = ClassUnit
		case delta%ElemBytes == 0:
			class = ClassShort
		default:
			// Sub-element misalignment within short range still walks the
			// same lines; bin it with short strides.
			class = ClassShort
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

func (d *mapDetector) Summary() Summary {
	var s Summary
	s.Total = d.total
	for c := Class(0); c < numClasses; c++ {
		s.Counts[c] = d.counts[c]
	}
	s.WorkingSetBytes = int64(len(d.lines)) * d.gran
	if d.total > 0 {
		s.StoreFraction = float64(d.stores) / float64(d.total)
	}
	return s
}

// sameSummary reports whether two summaries are identical, comparing the
// store fraction by bits.
func sameSummary(a, b Summary) bool {
	return a.Total == b.Total && a.Counts == b.Counts &&
		a.WorkingSetBytes == b.WorkingSetBytes &&
		math.Float64bits(a.StoreFraction) == math.Float64bits(b.StoreFraction)
}

// checkAgainstReference generates n references for spec with both
// generators and observes them with both detectors at the granularity,
// failing on the first difference. It returns the production references
// and whether the spec was accepted.
func checkAgainstReference(t testing.TB, spec StreamSpec, n int, gran int64) ([]Ref, bool) {
	t.Helper()
	got, err := Generate(spec, n)
	want, refErr := referenceGenerate(spec, n)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%+v: Generate error %v, reference error %v", spec, err, refErr)
	}
	if err != nil {
		return nil, false
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%+v: ref %d = %+v, reference %+v", spec, i, got[i], want[i])
		}
	}
	d, ref := NewDetectorGranularity(0, gran), newMapDetector(0, gran)
	for i, r := range got {
		if c, rc := d.Observe(r), ref.Observe(r); c != rc {
			t.Fatalf("%+v gran %d: ref %d classed %v, reference %v", spec, gran, i, c, rc)
		}
	}
	if s, rs := d.Summary(), ref.Summary(); !sameSummary(s, rs) {
		t.Fatalf("%+v gran %d: summary %+v, reference %+v", spec, gran, s, rs)
	}
	return got, true
}

// TestKernelsMatchReference runs seeded random specs through the
// production and reference kernels. The store and hot fractions include
// the edges where a threshold draw could part from a float draw: no
// stores (the store draw still happens), all stores, a fraction with no
// finite binary expansion, and a hot fraction just below one. The
// granularities are the detector default, the tracer's, and one that is
// not a power of two.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 0xACCE55))
	stores := []float64{0, 1, 1.0 / 3.0}
	hots := []float64{0, 0.999, 0.5}
	grans := []int64{64, 512, 96}
	const specs = 63
	for i := 0; i < specs; i++ {
		unit, short := rng.Float64(), rng.Float64()
		if unit+short > 1 {
			unit, short = unit/2, short/2
		}
		spec := StreamSpec{
			WorkingSetBytes:  int64(ElemBytes) << rng.IntN(28),
			Mix:              Mix{Unit: unit, Short: short, Random: 1 - unit - short},
			ShortStrideElems: int64(2 + rng.IntN(MaxShortStride-1)),
			StoreFraction:    stores[i%len(stores)],
			GatherSpread:     4 * rng.Float64(),
			HotFraction:      hots[(i/len(stores))%len(hots)],
			HotBytes:         int64(rng.IntN(64 << 10)),
			Seed:             rng.Uint64(),
		}
		if i%7 == 0 {
			spec.StoreFraction = rng.Float64()
			spec.HotFraction = rng.Float64()
		}
		if spec.HotBytes < ElemBytes {
			spec.HotBytes = 0
		}
		n := 1 + rng.IntN(20_000)
		checkAgainstReference(t, spec, n, grans[(i/(len(stores)*len(hots)))%len(grans)])
	}
}

// TestDrawThresholdBoundary checks the threshold t against the float
// draw at the draws k = t-1 and k = t on either side of it: the integer
// comparison k < t must agree with k/2^53 < p, true below and false at t.
func TestDrawThresholdBoundary(t *testing.T) {
	for _, p := range []float64{1.0 / 3.0, 0.999, 0.25, 1e-300, math.Nextafter(1, 0), 0.5 + 0x1p-53} {
		th := drawThreshold(p)
		if th == 0 || th > 1<<53 {
			t.Fatalf("p=%g: threshold %d outside (0, 2^53]", p, th)
		}
		for k, want := range map[uint64]bool{th - 1: true, th: false} {
			float := float64(k)/float64(1<<53) < p
			if k < th != want || float != want {
				t.Errorf("p=%g t=%d k=%d: integer draw below=%v, float draw below=%v, want %v",
					p, th, k, k < th, float, want)
			}
		}
	}
	for _, c := range []struct {
		p    float64
		want uint64
	}{{0, 0}, {math.NaN(), 0}, {-1, 0}, {1, 1 << 53}, {0.5, 1 << 52}} {
		if got := drawThreshold(c.p); got != c.want {
			t.Errorf("drawThreshold(%g) = %d, want %d", c.p, got, c.want)
		}
	}
}
