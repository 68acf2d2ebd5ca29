package access

import "testing"

// Benchmark inputs. The mixed spec has the shape of a traced application
// block (a unit-heavy mix with short strides, random gathers, stores and
// a hot region); the random spec is the worst case for the footprint set.
// Both are detected at the tracer's 512-byte footprint granularity.
var (
	benchMixedSpec = StreamSpec{
		WorkingSetBytes:  64 << 20,
		Mix:              Mix{Unit: 0.6, Short: 0.2, Random: 0.2},
		ShortStrideElems: 4,
		StoreFraction:    0.3,
		HotFraction:      0.5,
		GatherSpread:     2,
		Seed:             1,
	}
	benchRandomSpec = StreamSpec{WorkingSetBytes: 256 << 20, Mix: Mix{Random: 1}, Seed: 1}
)

const (
	benchRefs  = 1 << 20
	benchGrain = 512
)

var benchSink Ref

// BenchmarkGenerate times one fresh Stream of benchRefs references per
// op and reports ns per reference.
func BenchmarkGenerate(b *testing.B) {
	for _, bc := range []struct {
		name string
		spec StreamSpec
	}{{"mixed", benchMixedSpec}, {"random", benchRandomSpec}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := NewStream(bc.spec)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < benchRefs; j++ {
					benchSink = s.Next()
				}
			}
			reportNsPerRef(b)
		})
	}
}

// BenchmarkDetectorObserve times one fresh detector over benchRefs
// pre-generated references per op and reports ns per reference.
func BenchmarkDetectorObserve(b *testing.B) {
	for _, bc := range []struct {
		name string
		spec StreamSpec
	}{{"mixed", benchMixedSpec}, {"random", benchRandomSpec}} {
		b.Run(bc.name, func(b *testing.B) {
			refs, err := Generate(bc.spec, benchRefs)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := NewDetectorGranularity(0, benchGrain)
				for _, r := range refs {
					d.Observe(r)
				}
			}
			reportNsPerRef(b)
		})
	}
}

func reportNsPerRef(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRefs, "ns/ref")
}
