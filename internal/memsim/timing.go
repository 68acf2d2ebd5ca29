package memsim

import (
	"context"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/machine"
)

// TimingOpts adjusts how raw counters are priced.
type TimingOpts struct {
	// MLPCap, when positive, caps the memory-level parallelism used to
	// overlap uncovered miss latency. Dependent access chains (pointer
	// chasing, recurrences through memory) cannot issue misses in
	// parallel; the ENHANCED MAPS probe and the ground-truth executor use
	// this to price such blocks. Zero means "machine limit".
	MLPCap float64
}

// Timing is the priced outcome of a simulated reference stream.
type Timing struct {
	Refs    int64
	Cycles  float64
	Seconds float64
	// BytesFromMemory is demand + write-back traffic at the memory bus.
	BytesFromMemory int64
	// BytesPerSec is the achieved data rate: useful payload
	// (Refs × element size) over elapsed time. This is what STREAM-style
	// probes report.
	BytesPerSec float64
	Stats       Stats
}

// CyclesPerRef returns average cycles per reference.
func (t Timing) CyclesPerRef() float64 {
	if t.Refs == 0 {
		return 0
	}
	return t.Cycles / float64(t.Refs)
}

// Timing prices the accumulated statistics under the machine's
// parameters; see Price.
func (s *Simulator) Timing(opts TimingOpts) Timing {
	return Price(s.cfg, s.Stats(), opts)
}

// Price is the pricing half of the simulator: it turns counters into
// cycles and seconds under the machine's clock, latencies, bandwidths and
// memory-level parallelism. Of the counter geometry it reads only the
// line sizes, so the Stats of one Count price correctly on every machine
// that shares the geometry (see Memo); cfg must be such a machine.
//
// The model, per reference class (see package comment):
//
//	issue        every reference pays L1 issue/datapath throughput;
//	cache hit    served at level i>0: covered fills pay line/bandwidth,
//	             uncovered pay latency (MLP-overlapped);
//	memory       covered fills pay line/bandwidth, uncovered pay full
//	             memory latency divided by MLP; both are floored by the
//	             bus bandwidth of the bytes actually moved;
//	TLB          each miss pays the page-walk penalty, MLP-overlapped;
//	write-backs  pay memory bus bandwidth.
func Price(cfg *machine.Config, st Stats, opts TimingOpts) Timing {
	nLevels := len(cfg.Caches)

	mlp := cfg.MaxOutstandingMisses
	if opts.MLPCap > 0 && opts.MLPCap < mlp {
		mlp = opts.MLPCap
	}

	l1 := &cfg.Caches[0]
	issuePerRef := 1.0 / cfg.LoadStorePerCycle
	if dp := float64(access.ElemBytes) / l1.BandwidthBytesPerCycle; dp > issuePerRef {
		issuePerRef = dp
	}
	cycles := float64(st.Refs) * issuePerRef

	memBWBytesPerCycle := cfg.MemBandwidthGBs / cfg.ClockGHz // (GB/s)/(Gcyc/s)
	memLatCycles := cfg.MemLatencyNs * cfg.ClockGHz

	// Cache levels 1..n-1: filled from level i's own array.
	for i := 1; i < nLevels; i++ {
		lvl := &cfg.Caches[i]
		innerLine := float64(cfg.Caches[i-1].LineBytes)
		covered := float64(st.Covered[i])
		uncovered := float64(st.ServedBy[i]) - covered
		cycles += covered * (innerLine / lvl.BandwidthBytesPerCycle)
		cycles += uncovered * (lvl.LatencyCycles / mlp)
	}

	// Memory-served references. Streaming (covered) fills move the
	// outermost cache's full line; demand (uncovered) fills and
	// write-backs move only the innermost line — outer caches are
	// sectored, and critical-word-first delivery means a random miss does
	// not pay for the whole outer line on the bus.
	llcLine := float64(cfg.Caches[nLevels-1].LineBytes)
	// Demand fills deliver the critical 64-byte sector first; wide-line
	// machines do not pay their whole line on the bus per random miss.
	demandLine := float64(cfg.Caches[0].LineBytes)
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
		uncovLat = uncovBW // latency model cannot beat the bus
	}
	cycles += covCycles + uncovLat

	// Write-backs consume bus bandwidth at demand granularity; the memory
	// controller's write buffering overlaps roughly half of that traffic
	// with demand fetches.
	cycles += 0.5 * float64(st.Writebacks) * (demandLine / memBWBytesPerCycle)

	// TLB page walks.
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

// RunStream drives n references from the spec through a fresh pass of the
// simulator (without resetting existing state) and returns the priced
// result for everything accumulated so far.
func (s *Simulator) RunStream(spec access.StreamSpec, n int, opts TimingOpts) (Timing, error) {
	stream, err := access.NewStream(spec)
	if err != nil {
		return Timing{}, err
	}
	for i := 0; i < n; i++ {
		ref := stream.Next()
		s.Access(ref.Addr, ref.Store)
	}
	return s.Timing(opts), nil
}

// Count is the counting half of the simulator: a fresh simulator, a
// warm-up quarter of the stream to reach steady state (discarded from the
// statistics, as in the real probes' untimed first pass), then n counted
// references. The counters depend only on the machine's counter geometry
// (cache sizes, lines and associativity, the prefetcher and the TLB),
// never on its clock, latencies or bandwidths.
func Count(cfg *machine.Config, spec access.StreamSpec, n int) (Stats, error) {
	sim, err := New(cfg)
	if err != nil {
		return Stats{}, err
	}
	stream, err := access.NewStream(spec)
	if err != nil {
		return Stats{}, err
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
	return sim.Stats(), nil
}

// SimulateStream is the one-shot convenience: Count, then Price.
func SimulateStream(cfg *machine.Config, spec access.StreamSpec, n int, opts TimingOpts) (Timing, error) {
	return SimulateStreamContext(context.Background(), cfg, spec, n, opts)
}

// SimulateStreamContext is SimulateStream counting through the context's
// Memo, when it carries one, so a stream already counted on the same
// counter geometry is priced without being simulated again.
func SimulateStreamContext(ctx context.Context, cfg *machine.Config, spec access.StreamSpec, n int, opts TimingOpts) (Timing, error) {
	st, err := MemoFrom(ctx).Count(ctx, cfg, spec, n)
	if err != nil {
		return Timing{}, err
	}
	return Price(cfg, st, opts), nil
}
