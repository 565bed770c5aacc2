package core

import (
	"fmt"

	"isolbench/internal/cgroup"
	"isolbench/internal/device"
	"isolbench/internal/runpool"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// PriorityKind selects which app is prioritized in a trade-off run
// (§VI-B): a batch-app measured by bandwidth, or an LC-app measured by
// P99 latency.
type PriorityKind int

// Priority app kinds.
const (
	PriorityBatch PriorityKind = iota
	PriorityLC
)

func (p PriorityKind) String() string {
	if p == PriorityLC {
		return "lc"
	}
	return "batch"
}

// BEVariant selects the best-effort apps' workload, exercising flash
// idiosyncrasies (request size, access pattern, writes/GC).
type BEVariant int

// BE workload variants.
const (
	BE4KRand BEVariant = iota
	BE4KSeq
	BE256K
	BE4KWrite
)

func (v BEVariant) String() string {
	switch v {
	case BE4KSeq:
		return "4k-seq-read"
	case BE256K:
		return "256k-rand-read"
	case BE4KWrite:
		return "4k-rand-write"
	default:
		return "4k-rand-read"
	}
}

// AllBEVariants lists the BE workloads of Fig. 7.
func AllBEVariants() []BEVariant { return []BEVariant{BE4KRand, BE4KSeq, BE256K, BE4KWrite} }

// TradeoffPoint is one knob configuration's outcome: a point in the
// prioritization/utilization plane.
type TradeoffPoint struct {
	Config      string       // human-readable knob setting
	AggregateBW float64      // bytes/sec, all apps (utilization axis)
	PrioBW      float64      // priority app bytes/sec (batch metric)
	PrioP99     sim.Duration // priority app P99 (LC metric)
	Pareto      bool         // on the Pareto front
}

// TradeoffConfig parameterizes a Fig. 7 panel.
type TradeoffConfig struct {
	Knob    Knob
	Profile string
	Kind    PriorityKind
	Variant BEVariant
	Steps   int // sweep resolution for continuous knobs (default 12)
	Cores   int
	Warmup  sim.Duration
	Measure sim.Duration
	Seed    uint64
	Workers int        // sweep-setting fan-out (<=0 GOMAXPROCS, 1 sequential)
	Control RunControl // cancellation/watchdog/paranoid settings
}

func (c TradeoffConfig) withDefaults() TradeoffConfig {
	if c.Steps <= 0 {
		c.Steps = 12
	}
	if c.Cores <= 0 {
		c.Cores = 20
	}
	if c.Warmup <= 0 {
		c.Warmup = 400 * sim.Millisecond
		if w := c.Knob.spec().warmup; w > 0 {
			c.Warmup = w
		}
	}
	if c.Measure <= 0 {
		c.Measure = 1500 * sim.Millisecond
	}
	return c
}

// knobSetting is one point of a knob's configuration space.
type knobSetting struct {
	name  string
	apply groupSetup
}

// tradeoffSettings enumerates the knob's configuration space the way
// the paper sweeps it (Q6-Q9); a knob without a sweep gets one
// baseline setting.
func tradeoffSettings(cfg TradeoffConfig) []knobSetting {
	if f := cfg.Knob.spec().tradeoff; f != nil {
		return f(cfg)
	}
	return []knobSetting{{name: "baseline", apply: func(_, _, _ *cgroup.Group) error { return nil }}}
}

// beSpec builds one BE app spec for the variant.
func beSpec(v BEVariant, name string, g *cgroup.Group) workload.Spec {
	spec := workload.BEApp(name, g)
	switch v {
	case BE4KSeq:
		spec.Seq = true
	case BE256K:
		spec.Size = 256 << 10
		spec.QD = 64
	case BE4KWrite:
		spec.Op = device.Write
	}
	return spec
}

// prioSpec builds the priority app: a capped batch-app (does not
// saturate the SSD alone) or an LC-app.
func prioSpec(kind PriorityKind, g *cgroup.Group) workload.Spec {
	if kind == PriorityLC {
		return workload.LCApp("prio", g)
	}
	s := workload.BatchApp("prio", g)
	s.QD = 32 // ~1.5 GiB/s alone: achievable in isolation, not in contention
	return s
}

// RunTradeoff sweeps the knob's configuration space for one Fig. 7
// panel and returns the (utilization, priority-performance) points
// with the Pareto front marked. Sweep settings are independent — each
// one owns its own engine and cluster, seeded by setting index — so
// they fan out across cfg.Workers; results come back in setting order
// regardless of the pool width.
func RunTradeoff(cfg TradeoffConfig) ([]TradeoffPoint, error) {
	cfg = cfg.withDefaults()
	settings := tradeoffSettings(cfg)
	points, err := runpool.MapCtx(cfg.Control.Ctx, cfg.Workers, len(settings), func(si int) (TradeoffPoint, error) {
		return runTradeoffSetting(cfg, si, settings[si])
	})
	if err != nil {
		return nil, err
	}
	MarkPareto(points, cfg.Kind)
	return points, nil
}

// runTradeoffSetting measures one knob setting in a fresh cluster.
func runTradeoffSetting(cfg TradeoffConfig, si int, set knobSetting) (TradeoffPoint, error) {
	var zero TradeoffPoint
	prof, err := resolveProfile(cfg.Profile)
	if err != nil {
		return zero, err
	}
	cl, err := NewFleet(Options{
		Knob:         cfg.Knob,
		Profile:      prof,
		Cores:        cfg.Cores,
		Seed:         cfg.Seed + uint64(si)*977,
		Precondition: cfg.Variant == BE4KWrite,
		Control:      cfg.Control,
	})
	if err != nil {
		return zero, err
	}
	prioG, err := cl.NewGroup("prio")
	if err != nil {
		return zero, err
	}
	beG, err := cl.NewGroup("be")
	if err != nil {
		return zero, err
	}
	if err := set.apply(prioG, beG, cl.Tree.Root()); err != nil {
		return zero, err
	}
	prioApp, err := cl.AddApp(prioSpec(cfg.Kind, prioG), 0)
	if err != nil {
		return zero, err
	}
	for j := 0; j < 4; j++ {
		spec := beSpec(cfg.Variant, fmt.Sprintf("be%d", j), beG)
		spec.Core = 1 + j
		if _, err := cl.AddApp(spec, 0); err != nil {
			return zero, err
		}
	}
	if err := cl.RunPhase(cfg.Warmup, cfg.Measure); err != nil {
		return zero, err
	}
	res := cl.Result()
	st := prioApp.Stats()
	span := res.Span.Seconds()
	return TradeoffPoint{
		Config:      set.name,
		AggregateBW: res.AggregateBW,
		PrioBW:      float64(st.ReadBytes+st.WriteBytes) / span,
		PrioP99:     sim.Duration(st.P99Ns),
	}, nil
}

// MarkPareto marks the Pareto-optimal points: no other point has both
// higher utilization and better priority performance.
func MarkPareto(pts []TradeoffPoint, kind PriorityKind) {
	better := func(a, b TradeoffPoint) bool { // a dominates b
		if kind == PriorityLC {
			return a.AggregateBW >= b.AggregateBW && a.PrioP99 <= b.PrioP99 &&
				(a.AggregateBW > b.AggregateBW || a.PrioP99 < b.PrioP99)
		}
		return a.AggregateBW >= b.AggregateBW && a.PrioBW >= b.PrioBW &&
			(a.AggregateBW > b.AggregateBW || a.PrioBW > b.PrioBW)
	}
	for i := range pts {
		pts[i].Pareto = true
		for j := range pts {
			if i != j && better(pts[j], pts[i]) {
				pts[i].Pareto = false
				break
			}
		}
	}
}
