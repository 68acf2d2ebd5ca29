package predictor

import (
	"context"

	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/workload"
)

// Model is the observation model every base time, trace and ground
// truth is computed under. The zero value is the paper reproduction; each
// switch is an ablation that quantifies how much one model ingredient
// contributes to the study's error structure (DESIGN.md calls these out).
type Model struct {
	// DisableNoise turns off the deterministic observation noise.
	DisableNoise bool
	// IdleMemory runs applications on idle-node memory, removing the
	// probe-vs-production loaded-memory gap.
	IdleMemory bool
	// NoDependencyFlags blinds the static analyzer, so Metric #9
	// degenerates to Metric #8.
	NoDependencyFlags bool
}

// NoiseAmplitude is the deterministic stand-in for run-to-run variability
// of real observed times (OS jitter, placement, I/O): every observed time
// is scaled by a factor in [1-amp, 1+amp] hashed from its (cell, machine)
// identity. The paper's observed times carry such noise inherently;
// without it, a target machine that happens to resemble the base would be
// predicted with implausibly perfect accuracy.
const NoiseAmplitude = 0.10

// observationNoise returns the deterministic noise factor for one cell
// ("app-case@procs") on one machine.
func observationNoise(cell, machineName string) float64 {
	var h uint64 = 1469598103934665603 // FNV-1a over "cell|machine"
	for _, s := range []string{cell, "|", machineName} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	u := float64(h>>11) / float64(uint64(1)<<53) // uniform [0,1)
	return 1 + NoiseAmplitude*(2*u-1)
}

// idle returns the machine with its loaded-memory gap removed, for the
// IdleMemory ablation.
func idle(cfg *machine.Config) *machine.Config {
	out := cfg.Clone()
	out.MemLoadedFraction = 1
	out.MemLoadedLatencyFactor = 1
	return out
}

// observe is the one definition of an observed time: the ground-truth
// executor's seconds for app on cfg, run under the model and scaled by
// the cell's observation noise. Base times and target observations are
// both this function's result.
func (p *Predictor) observe(ctx context.Context, cell string, app *workload.App, cfg *machine.Config) (float64, error) {
	run := cfg
	if p.model.IdleMemory {
		run = idle(cfg)
	}
	r, err := p.eng.Execute(ctx, run, app)
	if err != nil {
		return 0, err
	}
	if p.model.DisableNoise {
		return r.Seconds, nil
	}
	return r.Seconds * observationNoise(cell, cfg.Name), nil
}
