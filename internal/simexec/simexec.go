// Package simexec is the study's stand-in for running an application on a
// real machine: the ground-truth executor.
//
// It executes a workload.App on a machine at full model fidelity — every
// basic block's address stream is simulated through the machine's cache
// hierarchy (memsim), its processor work is priced with dependency-chain
// and branch effects (cpusim), memory and compute overlap according to the
// core's decoupling ability, communication is priced with NIC contention
// (netsim), and untraceable load imbalance inflates the result. The
// prediction metrics (internal/metrics) never see most of this detail;
// the gap between their coarse models and this executor is exactly the
// prediction error the paper measures.
//
// Observed times-to-solution (the analogs of the paper's Appendix tables
// 6-10) come from Execute.
package simexec

import (
	"context"
	"errors"
	"fmt"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/cpusim"
	"hpcmetrics/internal/faults"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/memsim"
	"hpcmetrics/internal/netsim"
	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/workload"
)

// ErrTooLarge reports that the job needs more processors than the machine
// has. The study records such cells as missing, like the blank entries in
// the paper's appendix.
var ErrTooLarge = errors.New("simexec: job exceeds machine size")

// DependentMLP is the memory-level parallelism available to blocks whose
// loads feed a serial dependence chain: out-of-order runahead exposes a
// little overlap, but nothing like the machine's full miss capacity.
const DependentMLP = 2

// BlockResult is the priced execution of one basic block.
type BlockResult struct {
	Name string
	// CPUSeconds is the core-side time (dependency/issue/branch bound).
	CPUSeconds float64
	// MemSeconds is the memory-hierarchy time.
	MemSeconds float64
	// Seconds is the overlap-combined block time.
	Seconds float64
	// ILPLimited reports whether the dependency bound dominated.
	ILPLimited bool
	// MemCyclesPerRef is the sampled cache-simulation price.
	MemCyclesPerRef float64
}

// Result is the priced execution of a whole application run on one rank,
// scaled to the job's critical path.
type Result struct {
	App     string
	Case    string
	Procs   int
	Machine string
	// ComputeSeconds is the per-rank block total.
	ComputeSeconds float64
	// CommSeconds is the per-rank communication total.
	CommSeconds float64
	// Seconds is the observed wall-clock stand-in:
	// (compute + comm) x runtime imbalance.
	Seconds float64
	Blocks  []BlockResult
}

// SampleSize picks how many references to simulate for a stream: enough
// passes over the working set to reach steady-state cache residency,
// bounded for simulation cost. Two shortcuts keep the study tractable
// without hurting fidelity: working sets beyond every study machine's
// outermost cache need no wrapping (their steady-state rates emerge within
// a short stream), and essentially-random streams converge as soon as the
// TLB and caches are warm regardless of footprint.
func SampleSize(spec access.StreamSpec) int {
	const (
		floor        = 60_000
		ceiling      = 1_500_000
		hugeWS       = 48 << 20
		hugeSample   = 400_000
		randomSample = 500_000
	)
	n := 3 * spec.WorkingSetBytes / 8
	if n < floor {
		n = floor
	}
	if spec.Mix.Random > 0.9 && n > randomSample {
		return randomSample
	}
	if spec.WorkingSetBytes > hugeWS {
		return hugeSample
	}
	if n > ceiling {
		return ceiling
	}
	return int(n)
}

// Execute runs the app on the machine and returns the priced result.
func Execute(cfg *machine.Config, app *workload.App) (*Result, error) {
	return ExecuteContext(context.Background(), cfg, app)
}

// ExecuteContext is Execute with cancellation: the study's parallel
// harness runs many executions concurrently and must be able to abandon
// in-flight work. The context is consulted between basic blocks — the
// unit of simulation cost — so cancellation takes effect within one
// block's cache-stream sample. The same boundary is the
// faults.PointExecBlock injection point, keyed by (machine, app). Block
// streams are counted through the context's memsim.Memo when it carries
// one.
func ExecuteContext(ctx context.Context, cfg *machine.Config, app *workload.App) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "exec")
	defer span.End()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("simexec: %w", err)
	}
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("simexec: %w", err)
	}
	if span != nil {
		span.Annotate("machine", cfg.Name)
		span.Annotate("app", app.ID())
	}
	if app.Procs > cfg.TotalProcs {
		return nil, fmt.Errorf("%w: %s needs %d procs, %s has %d",
			ErrTooLarge, app.ID(), app.Procs, cfg.Name, cfg.TotalProcs)
	}

	// Production runs pack every core of a node, so each rank sees the
	// loaded memory system — unlike the idle-node single-CPU probes.
	cfg = cfg.Loaded()

	res := &Result{App: app.Name, Case: app.Case, Procs: app.Procs, Machine: cfg.Name}
	hz := cfg.ClockGHz * 1e9

	for i := range app.Blocks {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("simexec: %s: %w", app.ID(), err)
		}
		if err := faults.Hit(ctx, faults.PointExecBlock, cfg.Name, app.ID()); err != nil {
			return nil, fmt.Errorf("simexec: %s on %s: %w", app.ID(), cfg.Name, err)
		}
		blk := &app.Blocks[i]
		br, err := executeBlock(ctx, cfg, blk, hz)
		if err != nil {
			return nil, fmt.Errorf("simexec: %s/%s: %w", app.ID(), blk.Name, err)
		}
		res.Blocks = append(res.Blocks, br)
		res.ComputeSeconds += br.Seconds
	}

	net, err := netsim.New(cfg, app.Procs)
	if err != nil {
		return nil, fmt.Errorf("simexec: %w", err)
	}
	res.CommSeconds = net.Time(app.Comm)

	res.Seconds = (res.ComputeSeconds + res.CommSeconds) * app.RuntimeImbalance
	return res, nil
}

func executeBlock(ctx context.Context, cfg *machine.Config, blk *workload.Block, hz float64) (BlockResult, error) {
	opts := memsim.TimingOpts{}
	if blk.DependentMemory {
		opts.MLPCap = DependentMLP
	}
	sample := SampleSize(blk.Stream)
	memT, err := memsim.SimulateStreamContext(ctx, cfg, blk.Stream, sample, opts)
	if err != nil {
		return BlockResult{}, err
	}
	memCyclesPerIter := memT.CyclesPerRef() * blk.Work.MemOps

	// Memory-instruction issue slots are charged by memsim's datapath
	// term; pricing them again in the core model would double-count.
	coreWork := blk.Work
	coreWork.MemOps = 0
	cpu, err := cpusim.Time(cfg, coreWork)
	if err != nil {
		return BlockResult{}, err
	}

	perIter := combineOverlap(cpu.Cycles, memCyclesPerIter, cfg.MemOverlapFraction)
	total := perIter * blk.Iters

	return BlockResult{
		Name:            blk.Name,
		CPUSeconds:      cpu.Cycles * blk.Iters / hz,
		MemSeconds:      memCyclesPerIter * blk.Iters / hz,
		Seconds:         total / hz,
		ILPLimited:      cpu.ILPLimited,
		MemCyclesPerRef: memT.CyclesPerRef(),
	}, nil
}

// combineOverlap merges compute and memory cycles: the longer component
// always shows; a fraction of the shorter hides beneath it according to
// the core's ability to overlap independent work.
func combineOverlap(cpu, mem, overlap float64) float64 {
	longer, shorter := cpu, mem
	if mem > cpu {
		longer, shorter = mem, cpu
	}
	return longer + (1-overlap)*shorter
}
