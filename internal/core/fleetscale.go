package core

import (
	"fmt"
	"time"

	"isolbench/internal/metrics"
	"isolbench/internal/runpool"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// FleetScaleConfig parameterizes the knob-overhead-vs-N-tenants study:
// for each tenant count, a fresh fleet is populated through the tenant
// API (exercising the placement policy), run for one window, and its
// per-request CPU cost, aggregate throughput, fairness, and host
// wall-clock cost are sampled. With Churn set, tenants also arrive and
// depart mid-window at Poisson times.
type FleetScaleConfig struct {
	Knob      Knob
	Profile   string
	Tenants   []int // tenant counts; nil -> {10, 32, 100, 316, 1000, 3162, 10000}
	Devices   int   // SSDs per fleet (default 4)
	Cores     int   // default 20
	Placement Placement
	PackLimit int

	// Churn replaces one tenant (remove the oldest live one, add a
	// fresh one) at each event of a Poisson process over the
	// measurement window, so the tenant population stays ~constant
	// while cgroups continually enter and leave every layer's state.
	Churn bool
	// ChurnRate is the mean churn events per simulated second
	// (default 50).
	ChurnRate float64

	Warmup  sim.Duration
	Measure sim.Duration

	// MaxCgroups bounds per-cgroup observer accounting when the run
	// observes (paranoid mode); default 64. Attribution rows are
	// bounded to the same count. The caps fold cgroups in fleet-wide
	// order, so an observed fleetscale fleet always runs on one shard.
	MaxCgroups int

	Seed    uint64
	Workers int        // tenant-count fan-out (<=0 GOMAXPROCS, 1 sequential)
	Control RunControl // cancellation/watchdog/paranoid settings
}

func (c FleetScaleConfig) withDefaults() FleetScaleConfig {
	if len(c.Tenants) == 0 {
		c.Tenants = []int{10, 32, 100, 316, 1000, 3162, 10000}
	}
	if c.Devices <= 0 {
		c.Devices = 4
	}
	if c.Cores <= 0 {
		c.Cores = 20
	}
	if c.ChurnRate <= 0 {
		c.ChurnRate = 50
	}
	if c.Warmup <= 0 {
		c.Warmup = 100 * sim.Millisecond
	}
	if c.Measure <= 0 {
		c.Measure = 1 * sim.Second
	}
	if c.MaxCgroups <= 0 {
		c.MaxCgroups = 64
	}
	return c
}

// FleetScalePoint is one (tenant count) sample of the scaling study.
type FleetScalePoint struct {
	Tenants     int
	Adds        int // tenants added by churn during the window
	Removes     int // tenant teardowns completed
	AggregateBW float64
	IOPS        float64
	Jain        float64 // unweighted Jain across live tenant groups
	CPUUtil     float64
	CyclesPerIO float64
	CtxPerIO    float64
	Folded      int // cgroups aggregated by the observer's MaxCgroups bound

	// WallMS is the host wall-clock cost of simulating the cell. It is
	// the one field that is NOT deterministic — determinism tests must
	// compare points with it zeroed.
	WallMS float64
}

// RunFleetScale runs the scaling study for one knob. Tenant counts are
// independent units (one fleet each, seeded by count) fanning out
// across cfg.Workers in count order; everything except WallMS is
// byte-identical at any pool width.
func RunFleetScale(cfg FleetScaleConfig) ([]FleetScalePoint, error) {
	cfg = cfg.withDefaults()
	return runpool.MapCtx(cfg.Control.Ctx, cfg.Workers, len(cfg.Tenants), func(ci int) (FleetScalePoint, error) {
		return runFleetScaleCell(cfg, cfg.Tenants[ci])
	})
}

// runFleetScaleCell builds, populates, churns, and measures one fleet.
func runFleetScaleCell(cfg FleetScaleConfig, n int) (FleetScalePoint, error) {
	var zero FleetScalePoint
	prof, err := resolveProfile(cfg.Profile)
	if err != nil {
		return zero, err
	}
	opts := Options{
		Knob:      cfg.Knob,
		Profile:   prof,
		Devices:   cfg.Devices,
		Cores:     cfg.Cores,
		Seed:      cfg.Seed + uint64(n),
		Placement: cfg.Placement,
		PackLimit: cfg.PackLimit,
		Control:   cfg.Control,
	}
	opts.ObsConfig.MaxCgroups = cfg.MaxCgroups
	opts.AttrConfig.MaxVictims = cfg.MaxCgroups
	cl, err := NewFleet(opts)
	if err != nil {
		return zero, err
	}
	for i := 0; i < n; i++ {
		if _, err := cl.AddTenant(fleetTenantSpec(cfg, i)); err != nil {
			return zero, err
		}
	}

	var adds int
	if cfg.Churn {
		// Pre-schedule the Poisson churn events on the engine before the
		// window opens: the inter-arrival draws come from a dedicated RNG
		// stream, so churn perturbs nothing but the tenants it touches.
		rng := sim.NewRNG(cfg.Seed*5851 + uint64(n) + 77)
		mean := sim.Duration(float64(sim.Second) / cfg.ChurnRate)
		start := cl.Eng.Now().Add(cfg.Warmup)
		end := start.Add(cfg.Measure)
		seq := n
		for t := start.Add(rng.ExpDuration(mean)); t < end; t = t.Add(rng.ExpDuration(mean)) {
			cl.Eng.At(t, func() {
				// Replace the oldest live tenant that is not already
				// tearing down, keeping the population ~constant.
				for _, tn := range cl.Tenants {
					if tn.removing {
						continue
					}
					cl.RemoveTenant(tn, nil)
					break
				}
				if _, err := cl.AddTenant(fleetTenantSpec(cfg, seq)); err == nil {
					adds++
				}
				seq++
			})
		}
	}

	wallStart := time.Now()
	if err := cl.RunPhase(cfg.Warmup, cfg.Measure); err != nil {
		return zero, err
	}
	wall := time.Since(wallStart)

	res := cl.Result()
	bws := make([]float64, 0, len(res.Groups))
	for _, g := range res.Groups {
		bws = append(bws, g.BW)
	}
	return FleetScalePoint{
		Tenants:     n,
		Adds:        adds,
		Removes:     cl.Removals(),
		AggregateBW: res.AggregateBW,
		IOPS:        float64(res.IOs) / res.Span.Seconds(),
		Jain:        metrics.JainIndex(bws),
		CPUUtil:     res.CPUUtil,
		CyclesPerIO: res.CyclesPerIO,
		CtxPerIO:    res.CtxPerIO,
		Folded:      cl.Obs.FoldedCgroups(),
		WallMS:      float64(wall.Nanoseconds()) / 1e6,
	}, nil
}

// fleetTenantSpec is the study's tenant template: one LC app (4 KiB
// random reads, QD1) per tenant, cores assigned by tenant sequence.
func fleetTenantSpec(cfg FleetScaleConfig, i int) TenantSpec {
	spec := workload.LCApp("", nil)
	spec.Core = i % cfg.Cores
	return TenantSpec{Name: fmt.Sprintf("t%d", i), Apps: []workload.Spec{spec}}
}
