package access

import (
	"fmt"
	"math"
)

// StreamSpec describes the reference stream one basic block emits.
type StreamSpec struct {
	// WorkingSetBytes is the footprint the stream wanders over.
	WorkingSetBytes int64
	// Mix is the stride mixture of the stream.
	Mix Mix
	// ShortStrideElems is the element stride used for the short-stride
	// component (2..MaxShortStride). Zero defaults to 4.
	ShortStrideElems int64
	// StoreFraction is the fraction of references that are stores.
	StoreFraction float64
	// GatherSpread widens the random component: random targets are drawn
	// from a region GatherSpread times the working set (min 1), modeling
	// indirect gather/scatter whose index range exceeds the hot data.
	GatherSpread float64
	// HotFraction is the fraction of references that revisit a small hot
	// region (HotBytes) — loop temporaries, coefficients, stencil
	// neighbours just touched. This is the temporal locality that gives
	// real codes their high L1 hit rates; block-granularity tracing
	// cannot see it, which is one of the honest error sources of the
	// study's methodology.
	HotFraction float64
	// HotBytes is the hot-region size; zero defaults to 16KB.
	HotBytes int64
	// Seed selects the deterministic stream instance.
	Seed uint64
}

// Validate reports structural problems in the spec.
func (s StreamSpec) Validate() error {
	if s.WorkingSetBytes < ElemBytes {
		return fmt.Errorf("access: working set %d below one element", s.WorkingSetBytes)
	}
	if err := s.Mix.Validate(); err != nil {
		return err
	}
	if s.ShortStrideElems < 0 || s.ShortStrideElems == 1 || s.ShortStrideElems > MaxShortStride {
		return fmt.Errorf("access: short stride %d outside {0,2..%d}", s.ShortStrideElems, MaxShortStride)
	}
	// The float checks are written as !(in range) so a NaN is refused.
	if !(s.StoreFraction >= 0 && s.StoreFraction <= 1) {
		return fmt.Errorf("access: store fraction %g outside [0,1]", s.StoreFraction)
	}
	if !(s.GatherSpread >= 0 && s.GatherSpread <= math.MaxFloat64) {
		return fmt.Errorf("access: gather spread %g not finite and non-negative", s.GatherSpread)
	}
	if !(s.HotFraction >= 0 && s.HotFraction < 1) {
		return fmt.Errorf("access: hot fraction %g outside [0,1)", s.HotFraction)
	}
	if s.HotBytes < 0 {
		return fmt.Errorf("access: negative hot region %d", s.HotBytes)
	}
	if s.HotBytes > 0 && s.HotBytes < ElemBytes {
		// A region below one element has no slot to revisit.
		return fmt.Errorf("access: hot region %d below one element", s.HotBytes)
	}
	return nil
}

// generator interleaves three walkers — unit-stride, short-stride, and
// random — in proportions given by the mix. Interleaving follows real loop
// bodies, where a single iteration touches several arrays with different
// access patterns, so consecutive references alternate between walkers
// rather than arriving in long per-class runs.
type generator struct {
	spec     StreamSpec
	r        rng
	elems    int64 // working set in elements
	base     uint64
	stride   int64
	spread   int64 // random region in elements
	hotElems int64
	// unitIdx, shortIdx and hotIdx are the walkers' element positions,
	// kept reduced modulo their region so no step divides.
	unitIdx  int64
	shortIdx int64
	hotIdx   int64
	// hotBelow and storeBelow are HotFraction and StoreFraction as
	// thresholds on a 53-bit draw (see drawBelow).
	hotBelow   uint64
	storeBelow uint64
	// errAccum implements largest-remainder scheduling of the three
	// classes so exact proportions hold even for short streams.
	errAccum [numClasses]float64
}

// baseAddr separates streams in the address space so distinct blocks never
// alias; alignment keeps unit walkers line-aligned at start.
const baseAddr = uint64(1) << 40

func newGenerator(spec StreamSpec) (*generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	stride := spec.ShortStrideElems
	if stride == 0 {
		stride = 4
	}
	elems := spec.WorkingSetBytes / ElemBytes
	spreadF := spec.GatherSpread
	if spreadF < 1 {
		spreadF = 1
	}
	// This is the error-returning boundary for the rng invariant: every
	// random draw downstream indexes [0, spread), and rng.intn treats a
	// non-positive bound as a programming error. Validate() already forces
	// WorkingSetBytes >= ElemBytes (so elems >= 1), but an absurd
	// GatherSpread can still push the region past int64 and wrap negative
	// on conversion; refuse it here rather than panicking mid-stream.
	spreadElems := float64(elems) * spreadF
	if spreadElems > float64(1<<62) {
		return nil, fmt.Errorf("access: gather spread %g overflows the random region", spec.GatherSpread)
	}
	spread := int64(spreadElems)
	if spread < elems {
		spread = elems
	}
	hotBytes := spec.HotBytes
	if hotBytes == 0 {
		hotBytes = 16 << 10
	}
	return &generator{
		spec:       spec,
		r:          newRNG(spec.Seed),
		elems:      elems,
		base:       baseAddr + (spec.Seed%4096)*(1<<28),
		stride:     stride,
		spread:     spread,
		hotElems:   hotBytes / ElemBytes,
		hotBelow:   drawThreshold(spec.HotFraction),
		storeBelow: drawThreshold(spec.StoreFraction),
	}, nil
}

// drawThreshold converts a probability p <= 1 into the threshold t for
// which a 53-bit draw k satisfies k < t exactly when k/2^53 < p, the
// float comparison it replaces. Scaling by 2^53 is exact, so k/2^53 < p
// holds for integer k iff k < ceil(p*2^53). A p that is not above zero,
// NaN included, never wins.
func drawThreshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// drawBelow draws the next 53-bit value and reports whether it falls
// below the threshold t.
func (r *rng) drawBelow(t uint64) bool { return r.next()>>11 < t }

// pickClass chooses the next reference's class by largest accumulated
// deficit, which realizes the mix exactly without random clumping.
func (g *generator) pickClass() Class {
	g.errAccum[ClassUnit] += g.spec.Mix.Unit
	g.errAccum[ClassShort] += g.spec.Mix.Short
	g.errAccum[ClassRandom] += g.spec.Mix.Random
	best, bestV := ClassUnit, g.errAccum[ClassUnit]
	for c := ClassShort; c < numClasses; c++ {
		if g.errAccum[c] > bestV {
			best, bestV = c, g.errAccum[c]
		}
	}
	g.errAccum[best] -= 1
	return best
}

// next draws the hot decision (only when HotFraction > 0), then the
// class and any random target, then the store decision, always in that
// order: the draw sequence is part of the stream's identity.
func (g *generator) next() Ref {
	if g.hotBelow > 0 && g.r.drawBelow(g.hotBelow) {
		addr := g.base + uint64(3)<<27 + uint64(g.hotIdx)*ElemBytes
		if g.hotIdx++; g.hotIdx == g.hotElems {
			g.hotIdx = 0
		}
		return Ref{Addr: addr, Store: g.r.drawBelow(g.storeBelow)}
	}
	var addr uint64
	switch g.pickClass() {
	case ClassUnit:
		addr = g.base + uint64(g.unitIdx)*ElemBytes
		if g.unitIdx++; g.unitIdx == g.elems {
			g.unitIdx = 0
		}
	case ClassShort:
		addr = g.base + uint64(1)<<27 + uint64(g.shortIdx)*ElemBytes
		if g.shortIdx += g.stride; g.shortIdx >= g.elems {
			g.shortIdx %= g.elems // the stride may exceed a tiny region
		}
	default:
		addr = g.base + uint64(2)<<27 + uint64(g.r.intn(g.spread))*ElemBytes
	}
	return Ref{Addr: addr, Store: g.r.drawBelow(g.storeBelow)}
}

// Generate produces n deterministic references for the spec. The same
// (spec, n) always yields the same stream.
func Generate(spec StreamSpec, n int) ([]Ref, error) {
	g, err := newGenerator(spec)
	if err != nil {
		return nil, err
	}
	out := make([]Ref, n)
	for i := range out {
		out[i] = g.next()
	}
	return out, nil
}

// Stream is an incremental generator for callers that do not want the whole
// slice in memory (memsim consumes references one at a time).
type Stream struct{ g *generator }

// NewStream returns an incremental stream for the spec.
func NewStream(spec StreamSpec) (*Stream, error) {
	g, err := newGenerator(spec)
	if err != nil {
		return nil, err
	}
	return &Stream{g: g}, nil
}

// Next returns the next reference.
func (s *Stream) Next() Ref { return s.g.next() }
