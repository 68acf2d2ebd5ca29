package access

import "testing"

// FuzzStreamSpec feeds arbitrary specs to the generator. A spec must
// either be refused with an error or yield references without a panic;
// an accepted spec must produce the reference float-draw generator's
// references, its Stream must replay Generate's prefix, and the detector
// must summarize the references exactly as the map-based reference does.
// The seed corpus is testdata/fuzz/FuzzStreamSpec.
func FuzzStreamSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, ws int64, unit, short, random float64, stride int64,
		store, spread, hot float64, hotBytes int64, seed uint64, nRaw, granRaw uint16) {
		spec := StreamSpec{
			WorkingSetBytes:  ws,
			Mix:              Mix{Unit: unit, Short: short, Random: random},
			ShortStrideElems: stride,
			StoreFraction:    store,
			GatherSpread:     spread,
			HotFraction:      hot,
			HotBytes:         hotBytes,
			Seed:             seed,
		}
		n := int(nRaw % 4096)
		refs, accepted := checkAgainstReference(t, spec, n, int64(granRaw%1024))
		if !accepted {
			if _, err := NewStream(spec); err == nil {
				t.Fatalf("%+v: Generate refused the spec but NewStream accepted it", spec)
			}
			return
		}
		s, err := NewStream(spec)
		if err != nil {
			t.Fatalf("%+v: Generate accepted the spec but NewStream refused it: %v", spec, err)
		}
		for i, want := range refs {
			if got := s.Next(); got != want {
				t.Fatalf("%+v: stream ref %d = %+v, Generate %+v", spec, i, got, want)
			}
		}
	})
}
