package core

import (
	"fmt"

	"isolbench/internal/metrics"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// BurstConfig parameterizes the D4 burst-response experiment (Q10): a
// best-effort app runs steadily; a high-priority app starts mid-run;
// how long until the knob delivers the priority app its performance?
type BurstConfig struct {
	Knob    Knob
	Profile string
	Kind    PriorityKind
	Lead    sim.Duration // BE-only runtime before the burst
	Tail    sim.Duration // runtime after the burst begins
	Window  sim.Duration // timeline resolution
	Cores   int
	Seed    uint64
	Control RunControl // cancellation/watchdog/paranoid settings
}

func (c BurstConfig) withDefaults() BurstConfig {
	if c.Lead <= 0 {
		c.Lead = 2 * sim.Second
	}
	if c.Tail <= 0 {
		c.Tail = 8 * sim.Second
	}
	if c.Window <= 0 {
		c.Window = 100 * sim.Millisecond // matches the bandwidth counter granularity
	}
	if c.Cores <= 0 {
		c.Cores = 20
	}
	return c
}

// BurstResult reports the knob's response time to a priority burst.
type BurstResult struct {
	Knob     Knob
	Kind     PriorityKind
	Response sim.Duration // time from burst start to sustained performance
	Achieved bool         // whether steady performance was reached at all
	SteadyBW float64      // the priority app's steady bandwidth (bytes/sec)
	Timeline []metrics.TimelinePoint
}

// RunBurst measures the response time for a high-priority bursty app
// under one knob. Response time is from the burst start until the
// priority app's windowed bandwidth first reaches 80% of its eventual
// steady value and stays there for 3 consecutive windows.
func RunBurst(cfg BurstConfig) (*BurstResult, error) {
	cfg = cfg.withDefaults()
	prof, err := resolveProfile(cfg.Profile)
	if err != nil {
		return nil, err
	}
	cl, err := NewFleet(Options{Knob: cfg.Knob, Profile: prof, Cores: cfg.Cores, Seed: cfg.Seed, Control: cfg.Control})
	if err != nil {
		return nil, err
	}
	prioG, err := cl.NewGroup("prio")
	if err != nil {
		return nil, err
	}
	beG, err := cl.NewGroup("be")
	if err != nil {
		return nil, err
	}
	// The knob's strongest prioritization setting: the configuration
	// a practitioner would use to protect the bursty app.
	if f := cfg.Knob.spec().burst; f != nil {
		if err := f(prioG, beG, cl.Tree.Root()); err != nil {
			return nil, err
		}
	}

	spec := prioSpec(cfg.Kind, prioG)
	spec.Start = sim.Time(cfg.Lead)
	prioApp, err := cl.AddApp(spec, 0)
	if err != nil {
		return nil, err
	}
	for j := 0; j < 4; j++ {
		be := workload.BEApp(fmt.Sprintf("be%d", j), beG)
		be.Core = 1 + j
		if _, err := cl.AddApp(be, 0); err != nil {
			return nil, err
		}
	}

	if err := cl.RunTo(sim.Time(cfg.Lead + cfg.Tail)); err != nil {
		return nil, err
	}

	// Build the priority app's bandwidth timeline at the configured
	// window from its 100 ms counter... the counter's own window is
	// 100 ms; re-bucket via RateBetween for finer control.
	ctr := prioApp.Bandwidth()
	var timeline []metrics.TimelinePoint
	start := sim.Time(cfg.Lead)
	end := sim.Time(cfg.Lead + cfg.Tail)
	for t := start; t < end; t = t.Add(cfg.Window) {
		timeline = append(timeline, metrics.TimelinePoint{
			At:   t.Add(cfg.Window),
			Rate: ctr.RateBetween(t, t.Add(cfg.Window)),
		})
	}

	res := &BurstResult{Knob: cfg.Knob, Kind: cfg.Kind, Timeline: timeline}
	// Steady value: mean of the final quarter of the run.
	tail := len(timeline) / 4
	if tail < 1 {
		tail = 1
	}
	var sum float64
	for _, p := range timeline[len(timeline)-tail:] {
		sum += p.Rate
	}
	res.SteadyBW = sum / float64(tail)
	if res.SteadyBW <= 0 {
		return res, nil
	}
	const need = 3
	run := 0
	for i, p := range timeline {
		if p.Rate >= 0.8*res.SteadyBW {
			run++
			if run == need {
				first := i - need + 1
				res.Response = sim.Duration(first+1) * cfg.Window
				res.Achieved = true
				break
			}
		} else {
			run = 0
		}
	}
	return res, nil
}
