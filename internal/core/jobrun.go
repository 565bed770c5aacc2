package core

import (
	"fmt"

	"isolbench/internal/cgroup"
	"isolbench/internal/obs"
	"isolbench/internal/sim"
	"isolbench/internal/trace"
	"isolbench/internal/workload"
)

// JobRunConfig runs a user-supplied fio-style job file on the
// simulated testbed — the "bring your own scenario" mode of the
// benchmark.
type JobRunConfig struct {
	Knob    Knob
	Profile string
	Source  string // job file contents
	// KnobFiles are optional cgroup control-file writes applied before
	// the run, keyed by cgroup name from the job file, e.g.
	// {"tenant-lc": {"io.latency": "target=150"}}.
	KnobFiles map[string]map[string]string
	Warmup    sim.Duration
	Measure   sim.Duration // 0 = run until every job's Stop (+0.5 s)
	Cores     int
	Seed      uint64
	// Recorder, when non-nil, captures every completed request on
	// device 0 as a replayable trace.
	Recorder *trace.Recorder
	// Observe enables the observability layer for the run; the
	// resulting Observer is returned on Result.Obs.
	Observe bool
	// ObsConfig bounds the observer's ring buffers (zero = defaults).
	ObsConfig obs.Config
	// Attr enables interference attribution (implies Observe); the
	// blame matrix is reachable through Result.Obs.Attr.
	Attr bool
	// SLO arms burn-rate monitoring when SLO.P99 > 0 (implies Observe).
	SLO obs.SLOConfig
	// Control wires cancellation/watchdog/paranoid settings into the run.
	Control RunControl
}

// RunJobFile parses and executes a job file, returning the per-group
// results.
func RunJobFile(cfg JobRunConfig) (*Result, error) {
	jf, err := workload.ParseJobFile(cfg.Source)
	if err != nil {
		return nil, err
	}
	prof, err := resolveProfile(cfg.Profile)
	if err != nil {
		return nil, err
	}
	cl, err := NewFleet(Options{
		Knob:      cfg.Knob,
		Profile:   prof,
		Cores:     cfg.Cores,
		Seed:      cfg.Seed,
		Observe:   cfg.Observe,
		ObsConfig: cfg.ObsConfig,
		Attr:      cfg.Attr,
		SLO:       cfg.SLO,
		Control:   cfg.Control,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Recorder != nil {
		cfg.Recorder.Attach(cl.Devices[0])
	}

	groups := map[string]*cgroup.Group{}
	var horizon sim.Time
	core := 0
	for _, job := range jf.Jobs {
		g, ok := groups[job.Cgroup]
		if !ok {
			g, err = cl.NewGroup(job.Cgroup)
			if err != nil {
				return nil, err
			}
			groups[job.Cgroup] = g
		}
		for clone := 0; clone < job.NumJobs; clone++ {
			spec := job.Spec
			spec.Group = g
			spec.Name = job.Name
			if job.NumJobs > 1 {
				spec.Name = fmt.Sprintf("%s.%d", job.Name, clone)
			}
			spec.Core = core
			core++
			if _, err := cl.AddApp(spec, 0); err != nil {
				return nil, fmt.Errorf("job %s: %w", job.Name, err)
			}
			if spec.Stop > horizon {
				horizon = spec.Stop
			}
		}
	}
	for name, files := range cfg.KnobFiles {
		g, ok := groups[name]
		if !ok {
			return nil, fmt.Errorf("knob files reference unknown cgroup %q", name)
		}
		for file, value := range files {
			if err := g.SetFile(file, value); err != nil {
				return nil, fmt.Errorf("cgroup %s %s: %w", name, file, err)
			}
		}
	}

	measure := cfg.Measure
	if measure <= 0 {
		if horizon == 0 {
			return nil, fmt.Errorf("job file has no runtime and no Measure given")
		}
		measure = horizon.Sub(0) + 500*sim.Millisecond
	}
	if err := cl.RunPhase(cfg.Warmup, measure); err != nil {
		return nil, err
	}
	if cl.Obs != nil {
		var traceDrops uint64
		if cfg.Recorder != nil {
			traceDrops = cfg.Recorder.Dropped()
		}
		cl.Obs.NoteTelemetryDrops(traceDrops)
	}
	res := cl.Result()
	res.Obs = cl.Obs
	return &res, nil
}

// ReplayTrace replays a recorded trace as a single open-loop tenant
// under the given knob and returns its latency statistics. Entries must
// be sorted by submission time (trace.ReadJSONL and Recorder.Entries
// both guarantee it).
func ReplayTrace(k Knob, profile string, entries []trace.Entry, seed uint64) (workload.Stats, error) {
	prof, err := resolveProfile(profile)
	if err != nil {
		return workload.Stats{}, err
	}
	cl, err := NewFleet(Options{
		Knob:    k,
		Profile: prof,
		Seed:    seed,
	})
	if err != nil {
		return workload.Stats{}, err
	}
	g, err := cl.NewGroup("replay")
	if err != nil {
		return workload.Stats{}, err
	}
	app, err := cl.AddReplay(trace.NewSliceSource(entries), workload.ReplayConfig{Group: g}, 0)
	if err != nil {
		return workload.Stats{}, err
	}
	var span sim.Duration
	if len(entries) > 0 {
		span = entries[len(entries)-1].At.Sub(entries[0].At)
	}
	if err := cl.RunTo(cl.Eng.Now().Add(span + 2*sim.Second)); err != nil {
		return workload.Stats{}, err
	}
	if err := app.Err(); err != nil {
		return workload.Stats{}, err
	}
	return app.Stats(), nil
}
