package trace

import (
	"math"
	"runtime"
	"testing"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/cpusim"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/netsim"
	"hpcmetrics/internal/workload"
)

func smallApp() *workload.App {
	return &workload.App{
		Name: "unit", Case: "test", Procs: 4, RuntimeImbalance: 1,
		Blocks: []workload.Block{
			{
				Name: "stream_like",
				Work: cpusim.Work{Flops: 20, IntOps: 4, MemOps: 10, FPChainLen: 2},
				Stream: access.StreamSpec{
					WorkingSetBytes: 2 << 20,
					Mix:             access.Mix{Unit: 0.9, Random: 0.1},
					Seed:            1,
				},
				Iters: 1000,
			},
			{
				Name: "recurrence",
				Work: cpusim.Work{Flops: 30, IntOps: 4, MemOps: 10, FPChainLen: 25},
				Stream: access.StreamSpec{
					WorkingSetBytes: 256 << 10,
					Mix:             access.Mix{Unit: 1},
					Seed:            2,
				},
				Iters:           500,
				DependentMemory: true,
			},
		},
		Comm: []netsim.Event{{Op: netsim.OpAllReduce, Bytes: 8, Count: 50}},
	}
}

func TestCollectBasics(t *testing.T) {
	base := machine.Base()
	app := smallApp()
	tr, err := Collect(base, app)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ID() != "unit-test" || tr.Procs != 4 || tr.BaseSystem != base.Name {
		t.Fatalf("trace header wrong: %+v", tr)
	}
	if len(tr.Blocks) != 2 {
		t.Fatalf("traced %d blocks", len(tr.Blocks))
	}
	// Instruction counts are exact.
	if tr.Blocks[0].FlopsPerIter != 20 || tr.Blocks[0].MemOpsPerIter != 10 {
		t.Errorf("counters not exact: %+v", tr.Blocks[0])
	}
	if tr.TotalFlops() != 20*1000+30*500 {
		t.Errorf("TotalFlops = %g", tr.TotalFlops())
	}
	if tr.TotalMemOps() != 10*1000+10*500 {
		t.Errorf("TotalMemOps = %g", tr.TotalMemOps())
	}
}

func TestDetectedMixApproximatesTruth(t *testing.T) {
	tr, err := Collect(machine.Base(), smallApp())
	if err != nil {
		t.Fatal(err)
	}
	got := tr.Blocks[0].Mix
	if math.Abs(got.Unit-0.9) > 0.08 || math.Abs(got.Random-0.1) > 0.08 {
		t.Fatalf("detected mix %+v, want ~{0.9,0,0.1}", got)
	}
}

func TestWorkingSetDetected(t *testing.T) {
	tr, err := Collect(machine.Base(), smallApp())
	if err != nil {
		t.Fatal(err)
	}
	ws := tr.Blocks[0].WorkingSetBytes
	if ws < 1<<20 || ws > 4<<20 {
		t.Fatalf("detected working set %d for true 2MB", ws)
	}
}

func TestDependencyAnalyzerFlags(t *testing.T) {
	tr, err := Collect(machine.Base(), smallApp())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Blocks[0].ILPLimited {
		t.Error("stream-like block flagged ILP-limited")
	}
	if !tr.Blocks[1].ILPLimited {
		t.Error("recurrence block not flagged ILP-limited")
	}
}

func TestCommProfileCopied(t *testing.T) {
	app := smallApp()
	tr, err := Collect(machine.Base(), app)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Comm) != 1 || tr.Comm[0].Count != 50 {
		t.Fatalf("comm profile %+v", tr.Comm)
	}
	// Mutating the trace must not alias the app.
	tr.Comm[0].Count = 999
	if app.Comm[0].Count != 50 {
		t.Fatal("trace aliases the app's comm profile")
	}
}

func TestCollectRejectsInvalid(t *testing.T) {
	app := smallApp()
	app.Blocks = nil
	if _, err := Collect(machine.Base(), app); err == nil {
		t.Fatal("accepted invalid app")
	}
	bad := machine.Base()
	bad.ClockGHz = 0
	if _, err := Collect(bad, smallApp()); err == nil {
		t.Fatal("accepted invalid machine")
	}
}

func TestTraceDeterministic(t *testing.T) {
	a, err := Collect(machine.Base(), smallApp())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(machine.Base(), smallApp())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] {
			t.Fatalf("block %d differs across identical traces", i)
		}
	}
}

func TestTraceAllPaperApps(t *testing.T) {
	if testing.Short() {
		t.Skip("traces all study workloads")
	}
	base := machine.Base()
	for _, tc := range apps.Registry() {
		app, err := tc.Instance(tc.CPUCounts[1])
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Collect(base, app)
		if err != nil {
			t.Fatalf("%s: %v", tc.ID(), err)
		}
		if len(tr.Blocks) != len(app.Blocks) {
			t.Fatalf("%s: %d blocks traced, want %d", tc.ID(), len(tr.Blocks), len(app.Blocks))
		}
		for _, bt := range tr.Blocks {
			if bt.WorkingSetBytes <= 0 {
				t.Errorf("%s/%s: no working set detected", tc.ID(), bt.Name)
			}
			if bt.Mix.Unit+bt.Mix.Short+bt.Mix.Random < 0.999 {
				t.Errorf("%s/%s: mix does not sum to 1: %+v", tc.ID(), bt.Name, bt.Mix)
			}
		}
	}
}

func TestSampleSizeBounds(t *testing.T) {
	if got := sampleSize(100); got != tracerSampleFloor {
		t.Errorf("tiny ws sample = %d", got)
	}
	if got := sampleSize(1 << 40); got != tracerSampleCeiling {
		t.Errorf("huge ws sample = %d", got)
	}
	mid := int64(2 << 20)
	if got := sampleSize(mid); got != int(4*mid/access.ElemBytes) {
		t.Errorf("mid ws sample = %d", got)
	}
}

// TestFootprintSetAllocatesNoMoreThanLineMap replays every block of the
// paper apps, at each of their CPU counts, through the tracer's detector
// at the tracer's sample size and granularity, and checks that the
// detector's bitset footprint set allocates no more bytes than a map
// holding one key per distinct line, the footprint set it replaced.
func TestFootprintSetAllocatesNoMoreThanLineMap(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every block of every study workload")
	}
	var before, after runtime.MemStats
	allocated := func(fn func()) uint64 {
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, tc := range apps.Registry() {
		for _, procs := range tc.CPUCounts {
			app, err := tc.Instance(procs)
			if err != nil {
				t.Fatal(err)
			}
			for _, blk := range app.Blocks {
				stream, err := access.NewStream(blk.Stream)
				if err != nil {
					t.Fatal(err)
				}
				n := sampleSize(blk.Stream.WorkingSetBytes)
				var sum access.Summary
				bitset := allocated(func() {
					det := access.NewDetectorGranularity(0, tracerGranularity)
					for i := 0; i < n; i++ {
						det.Observe(stream.Next())
					}
					sum = det.Summary()
				})
				lines := sum.WorkingSetBytes / tracerGranularity
				lineMap := allocated(func() {
					m := make(map[uint64]struct{})
					for l := int64(0); l < lines; l++ {
						m[uint64(l)] = struct{}{}
					}
				})
				if bitset > lineMap {
					t.Errorf("%s@%d/%s: bitset allocated %d bytes, line map %d (%d lines)",
						tc.ID(), procs, blk.Name, bitset, lineMap, lines)
				}
			}
		}
	}
}
