package main

import (
	"fmt"
	"time"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/memsim"
)

// microReps is how many times each micro-timing repeats; the reported
// figure is the median.
const microReps = 5

// Fixed micro-timing inputs. The machine is ARL_Opteron; the memsim
// specs are the unit-stride and random streams of memsim's own
// BenchmarkAccessUnit and BenchmarkAccessRandom; the access specs use a
// real block of hycom-standard at its default CPU count, the kind of
// stream the tracer and executor replay.
var (
	microMachine = machine.ARLOpteron
	unitSpec     = access.StreamSpec{WorkingSetBytes: 32 << 20, Mix: access.Mix{Unit: 1}, Seed: 1}
	randomSpec   = access.StreamSpec{WorkingSetBytes: 256 << 20, Mix: access.Mix{Random: 1}, Seed: 1}
)

const (
	unitRefs    = 2_000_000
	randomRefs  = 1_000_000
	streamRefs  = 4_000_000
	tracerGrain = 512 // the tracer's footprint granularity (internal/trace)
)

// microTimings reports the memsim and access layers in ns per reference.
// SimulateStream prices n references after an n/4 warm-up, and each
// reference includes generating it, as in the memsim benchmarks.
func microTimings(r *report) error {
	cfg, err := machine.Preset(microMachine)
	if err != nil {
		return err
	}
	simulate := func(spec access.StreamSpec, n int) (float64, error) {
		return medianNsPerRef(n+n/4, func() error {
			_, err := memsim.SimulateStream(cfg, spec, n, memsim.TimingOpts{})
			return err
		})
	}
	if r.values["memsim.unit_ns_per_ref"], err = simulate(unitSpec, unitRefs); err != nil {
		return err
	}
	if r.values["memsim.random_ns_per_ref"], err = simulate(randomSpec, randomRefs); err != nil {
		return err
	}

	spec, err := hycomBlockSpec()
	if err != nil {
		return err
	}
	if r.values["access.gen_ns_per_ref"], err = medianNsPerRef(streamRefs, func() error {
		s, err := access.NewStream(spec)
		if err != nil {
			return err
		}
		for i := 0; i < streamRefs; i++ {
			s.Next()
		}
		return nil
	}); err != nil {
		return err
	}
	refs, err := access.Generate(spec, streamRefs)
	if err != nil {
		return err
	}
	r.values["access.detect_ns_per_ref"], err = medianNsPerRef(streamRefs, func() error {
		d := access.NewDetectorGranularity(0, tracerGrain)
		for _, ref := range refs {
			d.Observe(ref)
		}
		return nil
	})
	return err
}

func hycomBlockSpec() (access.StreamSpec, error) {
	tc, err := apps.Lookup("hycom", "standard")
	if err != nil {
		return access.StreamSpec{}, err
	}
	procs, err := tc.DefaultProcs()
	if err != nil {
		return access.StreamSpec{}, err
	}
	app, err := tc.Instance(procs)
	if err != nil {
		return access.StreamSpec{}, err
	}
	if len(app.Blocks) == 0 {
		return access.StreamSpec{}, fmt.Errorf("hycom-standard has no blocks")
	}
	return app.Blocks[0].Stream, nil
}

// medianNsPerRef times fn microReps times and returns the median wall
// time divided by refs.
func medianNsPerRef(refs int, fn func() error) (float64, error) {
	ns := make([]float64, 0, microReps)
	for i := 0; i < microReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(refs))
	}
	return median(ns), nil
}
