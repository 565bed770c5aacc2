package core

import (
	"fmt"

	"isolbench/internal/cgroup"
	"isolbench/internal/device"
	"isolbench/internal/obs"
	"isolbench/internal/obs/attr"
	"isolbench/internal/runpool"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// AttributionConfig parameterizes one attribution cell: three tenant
// groups on one device — a bursty writer, a batch reader fleet, and a
// protected LC tenant — instrumented with wait-for-whom accounting so
// the run answers WHY the LC tenant's tail moved, not just that it
// did.
type AttributionConfig struct {
	Knob    Knob
	Warmup  sim.Duration
	Measure sim.Duration
	Cores   int
	Seed    uint64
	Control RunControl
	// SLO is the latency objective monitored during the run (zero P99
	// = default 500 us on every tenant).
	SLO obs.SLOConfig
	// Attr bounds the tracker (zero = defaults).
	Attr attr.Config
}

func (c AttributionConfig) withDefaults() AttributionConfig {
	if c.Warmup <= 0 {
		c.Warmup = 200 * sim.Millisecond
	}
	if c.Measure <= 0 {
		c.Measure = 2 * sim.Second
	}
	if c.Cores <= 0 {
		c.Cores = 4
	}
	if c.SLO.P99 <= 0 {
		c.SLO.P99 = 500 * sim.Microsecond
	}
	return c
}

// attributionWeights is the burst:batch:lc split, ascending-priority
// ordered because applyFairnessWeights maps MQ-DL priority classes by
// group index (the last group gets class rt).
func attributionWeights() []float64 { return []float64{1, 1, 4} }

// AttrTenant is one tenant group's identity and window summary.
type AttrTenant struct {
	ID     int
	Name   string
	Weight float64
	P99    sim.Duration
	BW     float64
}

// AttributionResult is one knob's blame matrix plus the run context
// needed to read it: tenant identities, SLO incidents, and telemetry
// drop counters.
type AttributionResult struct {
	Knob    Knob
	Tenants []AttrTenant

	// Cells is the per-(victim, layer, aggressor) blame matrix in
	// deterministic order; Totals is each victim's summed wait.
	Cells  []attr.Cell
	Totals map[int]sim.Duration

	// Finished counts requests folded into the matrix.
	Finished uint64

	Incidents     []obs.Incident
	SpansDropped  uint64
	SeriesDropped uint64
}

// RunAttribution builds the three-tenant contention scenario, runs it
// with attribution and SLO monitoring on, and extracts the blame
// matrix.
func RunAttribution(cfg AttributionConfig) (*AttributionResult, error) {
	cfg = cfg.withDefaults()
	cl, err := NewFleet(Options{
		Knob:       cfg.Knob,
		Cores:      cfg.Cores,
		Seed:       cfg.Seed,
		Attr:       true,
		AttrConfig: cfg.Attr,
		SLO:        cfg.SLO,
		Control:    cfg.Control,
	})
	if err != nil {
		return nil, err
	}
	weights := attributionWeights()
	names := []string{"burst", "batch", "lc"}
	var groups []*cgroup.Group
	appIdx := 0
	addApp := func(spec workload.Spec) error {
		spec.Core = appIdx
		appIdx++
		_, err := cl.AddApp(spec, 0)
		return err
	}
	for gi, gname := range names {
		g, err := cl.NewGroup(gname)
		if err != nil {
			return nil, err
		}
		groups = append(groups, g)
		for j := 0; j < 2; j++ {
			var spec workload.Spec
			switch gi {
			case 0:
				// Bursty writer: 64 KiB sequential writes in 50 ms
				// on/off phases — builds GC debt and floods queues in
				// bursts.
				spec = workload.Spec{
					Name: fmt.Sprintf("burst-a%d", j), Group: g,
					Op: device.Write, Seq: true, Size: 64 << 10, QD: 64,
					BurstOn: 50 * sim.Millisecond, BurstOff: 50 * sim.Millisecond,
				}
			case 1:
				spec = workload.BatchApp(fmt.Sprintf("batch-a%d", j), g)
			default:
				// The protected tenant shares cores with the burst
				// apps (appIdx wraps modulo Cores), so CPU-layer blame
				// is observable alongside the I/O-path layers.
				spec = workload.LCApp(fmt.Sprintf("lc-a%d", j), g)
			}
			if err := addApp(spec); err != nil {
				return nil, err
			}
		}
	}
	if err := applyFairnessWeights(cfg.Knob, groups, weights, 3.0e9); err != nil {
		return nil, err
	}
	if err := cl.RunPhase(cfg.Warmup, cfg.Measure); err != nil {
		return nil, err
	}
	res := cl.Result()
	cl.Obs.NoteTelemetryDrops(0)

	out := &AttributionResult{
		Knob:          cfg.Knob,
		Cells:         cl.Attr.Cells(),
		Totals:        make(map[int]sim.Duration),
		Finished:      cl.Attr.Finished(),
		Incidents:     cl.Obs.Incidents(),
		SpansDropped:  cl.Obs.SpansDropped(),
		SeriesDropped: cl.Obs.SeriesDropped(),
	}
	for gi, g := range groups {
		t := AttrTenant{ID: g.ID(), Name: names[gi], Weight: weights[gi]}
		if gi < len(res.Groups) {
			t.P99 = res.Groups[gi].P99
			t.BW = res.Groups[gi].BW
		}
		out.Tenants = append(out.Tenants, t)
		out.Totals[g.ID()] = cl.Attr.VictimTotal(g.ID())
	}
	return out, nil
}

// RunAttributionGrid runs one attribution cell per knob across the
// worker pool, results in knob order. Cells are independent clusters
// with deterministic per-cell seeds, so the assembled report is
// byte-identical at any worker count.
func RunAttributionGrid(knobs []Knob, cfg AttributionConfig, workers int) ([]*AttributionResult, error) {
	return runpool.MapCtx(cfg.Control.Ctx, workers, len(knobs), func(i int) (*AttributionResult, error) {
		c := cfg
		c.Knob = knobs[i]
		return RunAttribution(c)
	})
}

// aggrName renders an aggressor id against the result's tenant table.
func (r *AttributionResult) aggrName(victim, aggr int) string {
	if aggr == victim {
		return "self"
	}
	if aggr == attr.Other {
		return "other"
	}
	for _, t := range r.Tenants {
		if t.ID == aggr {
			return t.Name
		}
	}
	return fmt.Sprintf("cg%d", aggr)
}

func (r *AttributionResult) tenantName(id int) string {
	for _, t := range r.Tenants {
		if t.ID == id {
			return t.Name
		}
	}
	return fmt.Sprintf("cg%d", id)
}
