package memsim

import (
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/machine"
)

// referenceSimulateStream is the monolithic simulator the count/price
// split replaced, kept as the reference the split must match bit for
// bit: one fresh simulator, a warm-up quarter, then n references priced
// from the simulator's own level configs. It runs the reference cache
// kernel (reference_kernel_test.go), so the comparison also holds the
// production kernel to it.
func referenceSimulateStream(cfg *machine.Config, spec access.StreamSpec, n int, opts TimingOpts) (Timing, error) {
	sim, err := newReferenceSimulator(cfg)
	if err != nil {
		return Timing{}, err
	}
	stream, err := access.NewStream(spec)
	if err != nil {
		return Timing{}, err
	}
	for i := 0; i < n/4; i++ {
		ref := stream.Next()
		sim.Access(ref.Addr, ref.Store)
	}
	sim.ResetStats()
	for i := 0; i < n; i++ {
		ref := stream.Next()
		sim.Access(ref.Addr, ref.Store)
	}
	return referenceTiming(sim, opts), nil
}

// referenceTiming is the pricing body as it read inside Simulator.Timing.
func referenceTiming(s *referenceSimulator, opts TimingOpts) Timing {
	cfg := s.cfg
	st := s.Stats()
	nLevels := len(s.levels)

	mlp := cfg.MaxOutstandingMisses
	if opts.MLPCap > 0 && opts.MLPCap < mlp {
		mlp = opts.MLPCap
	}

	l1 := &s.levels[0].cfg
	issuePerRef := 1.0 / cfg.LoadStorePerCycle
	if dp := float64(access.ElemBytes) / l1.BandwidthBytesPerCycle; dp > issuePerRef {
		issuePerRef = dp
	}
	cycles := float64(st.Refs) * issuePerRef

	memBWBytesPerCycle := cfg.MemBandwidthGBs / cfg.ClockGHz
	memLatCycles := cfg.MemLatencyNs * cfg.ClockGHz

	for i := 1; i < nLevels; i++ {
		lvl := &s.levels[i].cfg
		innerLine := float64(s.levels[i-1].cfg.LineBytes)
		covered := float64(st.Covered[i])
		uncovered := float64(st.ServedBy[i]) - covered
		cycles += covered * (innerLine / lvl.BandwidthBytesPerCycle)
		cycles += uncovered * (lvl.LatencyCycles / mlp)
	}

	llcLine := float64(s.levels[nLevels-1].cfg.LineBytes)
	demandLine := float64(s.levels[0].cfg.LineBytes)
	if demandLine > 64 {
		demandLine = 64
	}
	memServed := st.ServedBy[nLevels]
	coveredMem := float64(st.Covered[nLevels])
	uncoveredMem := float64(memServed) - coveredMem

	covCycles := coveredMem * (llcLine / memBWBytesPerCycle)
	uncovLat := uncoveredMem * (memLatCycles / mlp)
	uncovBW := uncoveredMem * (demandLine / memBWBytesPerCycle)
	if uncovBW > uncovLat {
		uncovLat = uncovBW
	}
	cycles += covCycles + uncovLat

	cycles += 0.5 * float64(st.Writebacks) * (demandLine / memBWBytesPerCycle)

	if st.TLBMisses > 0 {
		cycles += float64(st.TLBMisses) * (cfg.TLBMissPenaltyNs * cfg.ClockGHz) / mlp
	}

	seconds := cycles / (cfg.ClockGHz * 1e9)
	bytesFromMem := int64(coveredMem*llcLine + (uncoveredMem+float64(st.Writebacks))*demandLine)
	out := Timing{
		Refs:            st.Refs,
		Cycles:          cycles,
		Seconds:         seconds,
		BytesFromMemory: bytesFromMem,
		Stats:           st,
	}
	if seconds > 0 {
		out.BytesPerSec = float64(st.Refs*access.ElemBytes) / seconds
	}
	return out
}

// sameTiming reports the first difference between two Timings, comparing
// floats by bits and Stats by deep equality; "" means identical.
func sameTiming(got, want Timing) string {
	switch {
	case got.Refs != want.Refs:
		return "Refs"
	case math.Float64bits(got.Cycles) != math.Float64bits(want.Cycles):
		return "Cycles"
	case math.Float64bits(got.Seconds) != math.Float64bits(want.Seconds):
		return "Seconds"
	case math.Float64bits(got.BytesPerSec) != math.Float64bits(want.BytesPerSec):
		return "BytesPerSec"
	case got.BytesFromMemory != want.BytesFromMemory:
		return "BytesFromMemory"
	case !reflect.DeepEqual(got.Stats, want.Stats):
		return "Stats"
	}
	return ""
}

// probeSpecs mirrors the stream specs of the probe suite
// (internal/probes): HPL, STREAM, GUPS, and the MAPS unit and random
// sweeps, whose ENHANCED variants differ only in pricing.
func probeSpecs() []access.StreamSpec {
	specs := []access.StreamSpec{
		{WorkingSetBytes: 24 << 10, Mix: access.Mix{Unit: 0.9, Short: 0.1}, ShortStrideElems: 2, StoreFraction: 0.25, Seed: 0xD6E3},
		{WorkingSetBytes: 64 << 20, Mix: access.Mix{Unit: 1}, StoreFraction: 1.0 / 3.0, Seed: 0x57EA},
		{WorkingSetBytes: 256 << 20, Mix: access.Mix{Random: 1}, StoreFraction: 0.5, Seed: 0x9B5},
	}
	for _, ws := range []int64{8 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20, 128 << 20} {
		for _, mix := range []access.Mix{{Unit: 1}, {Random: 1}} {
			specs = append(specs, access.StreamSpec{WorkingSetBytes: ws, Mix: mix, StoreFraction: 0.25, Seed: 0x3A95 ^ uint64(ws)})
		}
	}
	return specs
}

// pricings are the TimingOpts the study prices with: the machine limit,
// and the dependent-chain cap of ENHANCED MAPS and the executor.
var pricings = []TimingOpts{{}, {MLPCap: 2}}

// checkSplit asserts that, for one (cfg, spec, n), the split path, the
// memo's first answer and its repeat answer all equal the monolithic
// reference under every pricing.
func checkSplit(t *testing.T, memo *Memo, cfg *machine.Config, spec access.StreamSpec, n int) {
	t.Helper()
	ctx := context.Background()
	counted, err := Count(cfg, spec, n)
	if err != nil {
		t.Fatalf("%s %+v: Count: %v", cfg.Name, spec, err)
	}
	first, err := memo.Count(ctx, cfg, spec, n)
	if err != nil {
		t.Fatalf("%s %+v: memo: %v", cfg.Name, spec, err)
	}
	again, err := memo.Count(ctx, cfg, spec, n)
	if err != nil {
		t.Fatalf("%s %+v: memo repeat: %v", cfg.Name, spec, err)
	}
	for _, opts := range pricings {
		want, err := referenceSimulateStream(cfg, spec, n, opts)
		if err != nil {
			t.Fatalf("%s %+v: reference: %v", cfg.Name, spec, err)
		}
		for path, got := range map[string]Timing{
			"Price(Count)": Price(cfg, counted, opts),
			"memo first":   Price(cfg, first, opts),
			"memo repeat":  Price(cfg, again, opts),
		} {
			if field := sameTiming(got, want); field != "" {
				t.Errorf("%s %+v n=%d %+v: %s differs from the reference in %s", cfg.Name, spec, n, opts, path, field)
			}
		}
	}
}

// TestSplitMatchesMonolithicOnPresets runs every probe stream on all 11
// presets and their Loaded() variants through one memo, so the idle and
// loaded configs of a machine, and machines sharing a geometry, are
// priced from each other's counts. The sample is shortened from the
// probes' own (the split is exact at any length) to keep the test quick.
func TestSplitMatchesMonolithicOnPresets(t *testing.T) {
	n := 12_000
	if testing.Short() {
		n = 3_000
	}
	memo := NewMemo()
	for _, name := range machine.Names() {
		idle := machine.MustPreset(name)
		for _, cfg := range []*machine.Config{idle, idle.Loaded()} {
			for _, spec := range probeSpecs() {
				checkSplit(t, memo, cfg, spec, n)
			}
		}
	}
	st := memo.Snapshot()
	if st.Evictions != 0 || st.Hits == 0 || st.Misses != int64(st.Keys) {
		t.Errorf("memo traffic %+v: want hits, no evictions, one miss per key", st)
	}
}

// randomMachine draws a valid machine: 1-3 cache levels of increasing
// size, random lines and associativity (including direct-mapped, 128-way
// and fully associative), prefetcher and TLB, and random pricing fields.
func randomMachine(rng *rand.Rand) *machine.Config {
	cfg := &machine.Config{
		Name:                   "random",
		ClockGHz:               0.5 + 3*rng.Float64(),
		FPPerCycle:             1 + float64(rng.IntN(4)),
		FPLatencyCycles:        1 + float64(rng.IntN(6)),
		IssueWidth:             1 + float64(rng.IntN(4)),
		LoadStorePerCycle:      1 + float64(rng.IntN(2)),
		MaxOutstandingMisses:   1 + float64(rng.IntN(16)),
		PrefetchStreams:        rng.IntN(9),
		PrefetchMaxStride:      1 + rng.Int64N(3),
		MemLatencyNs:           50 + 200*rng.Float64(),
		MemBandwidthGBs:        0.5 + 8*rng.Float64(),
		MemLoadedFraction:      0.2 + 0.8*rng.Float64(),
		MemLoadedLatencyFactor: 1 + rng.Float64(),
		PageBytes:              int64(4096) << rng.IntN(3),
		TLBEntries:             []int{0, 32, 64, 256}[rng.IntN(4)],
		TLBMissPenaltyNs:       10 + 40*rng.Float64(),
		CoresPerNode:           1 + rng.IntN(8),
		TotalProcs:             64,
		MemOverlapFraction:     rng.Float64(),
		Net:                    machine.Network{LatencyUs: 1, BandwidthMBs: 100, NICsPerNode: 1},
	}
	size := int64(4<<10) << rng.IntN(3)
	for lvl := 0; lvl < 1+rng.IntN(3); lvl++ {
		line := int64(32) << rng.IntN(3)
		lines := size / line
		assoc := []int{0, 1, 2, 4, 8, 128}[rng.IntN(6)]
		if assoc == 0 && lines > 512 {
			assoc = 8 // keep fully associative levels small
		}
		if int64(assoc) > lines {
			assoc = 0 // fewer lines than ways: one fully associative set
		}
		cfg.Caches = append(cfg.Caches, machine.CacheLevel{
			Name: "L", SizeBytes: size, LineBytes: line, Assoc: assoc,
			LatencyCycles:          float64(2 + 10*lvl + rng.IntN(5)),
			BandwidthBytesPerCycle: 2 + 14*rng.Float64(),
		})
		size <<= 2 + rng.IntN(3)
	}
	return cfg
}

// randomSpec draws a valid stream spec over 1 KB - 16 MB.
func randomSpec(rng *rand.Rand) access.StreamSpec {
	unit, short := rng.Float64(), rng.Float64()
	if unit+short > 1 {
		unit, short = unit/2, short/2
	}
	return access.StreamSpec{
		WorkingSetBytes:  int64(1<<10) << rng.IntN(15),
		Mix:              access.Mix{Unit: unit, Short: short, Random: 1 - unit - short},
		ShortStrideElems: int64(2 + rng.IntN(access.MaxShortStride-1)),
		StoreFraction:    rng.Float64(),
		HotFraction:      rng.Float64() / 2,
		Seed:             rng.Uint64(),
	}
}

// TestSplitMatchesMonolithicOnGeneratedInputs checks the same property
// over seeded random (geometry, spec, n), each machine also priced
// loaded.
func TestSplitMatchesMonolithicOnGeneratedInputs(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	rng := rand.New(rand.NewPCG(12, 0x5EED))
	memo := NewMemo()
	assocs := map[int]bool{}
	for i := 0; i < rounds; i++ {
		cfg := randomMachine(rng)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("generator drew an invalid machine: %v", err)
		}
		for _, lc := range cfg.Caches {
			assocs[lc.Assoc] = true
		}
		spec := randomSpec(rng)
		if err := spec.Validate(); err != nil {
			t.Fatalf("generator drew an invalid spec: %v", err)
		}
		n := 1 + rng.IntN(8_000)
		checkSplit(t, memo, cfg, spec, n)
		checkSplit(t, memo, cfg.Loaded(), spec, n)
	}
	for _, a := range []int{0, 1, 128} {
		if !assocs[a] {
			t.Errorf("no generated level had associativity %d", a)
		}
	}
}

// TestKernelMatchesReferenceAtAddressExtremes drives 4-byte lines, the
// shortest New accepts, with addresses at both ends of the address
// space, where line numbers come closest to the packed dirty bit and the
// empty-way marker, and with stores so lines go dirty. Every level kind
// is present: direct-mapped, 128-way and fully associative.
func TestKernelMatchesReferenceAtAddressExtremes(t *testing.T) {
	cfg := machine.MustPreset(machine.ARLOpteron)
	cfg.Caches = []machine.CacheLevel{
		{Name: "L1", SizeBytes: 64, LineBytes: 4, Assoc: 0, LatencyCycles: 1, BandwidthBytesPerCycle: 8},
		{Name: "L2", SizeBytes: 1024, LineBytes: 4, Assoc: 1, LatencyCycles: 4, BandwidthBytesPerCycle: 4},
		{Name: "L3", SizeBytes: 4096, LineBytes: 4, Assoc: 128, LatencyCycles: 9, BandwidthBytesPerCycle: 2},
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReferenceSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(4, 0xED6E))
	for i := 0; i < 50_000; i++ {
		addr := rng.Uint64N(1 << 14)
		if rng.IntN(2) == 0 {
			addr = ^addr // the top of the address space
		}
		store := rng.IntN(3) == 0
		sim.Access(addr, store)
		ref.Access(addr, store)
	}
	if got, want := sim.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats %+v, reference %+v", got, want)
	}
	if want := ref.Stats(); want.Writebacks == 0 || want.ServedBy[0] == 0 || want.ServedBy[3] == 0 {
		t.Fatalf("reference stats %+v: want hits, memory traffic and writebacks", want)
	}
}

// TestNewRejectsLinesBelowTagMinimum pins the line-size floor the packed
// tag layout needs.
func TestNewRejectsLinesBelowTagMinimum(t *testing.T) {
	for _, line := range []int64{1, 2} {
		cfg := machine.MustPreset(machine.ARLOpteron)
		cfg.Caches = []machine.CacheLevel{{Name: "L1", SizeBytes: 64, LineBytes: line, Assoc: 2, LatencyCycles: 1, BandwidthBytesPerCycle: 8}}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("line %d: machine invalid before memsim sees it: %v", line, err)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("line %d: New accepted a line below %d bytes", line, minLineBytes)
		}
	}
}
