// Package core implements isol-bench itself: the benchmark suite that
// evaluates the paper's four performance-isolation desiderata (D1
// overhead & scalability, D2 proportional fairness, D3 prioritization/
// utilization trade-offs, D4 burst response) for every cgroups I/O
// control knob, on top of the simulated NVMe testbed.
package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"isolbench/internal/blk"
	"isolbench/internal/cgroup"
	"isolbench/internal/ioctl/iocost"
	"isolbench/internal/ioctl/iolatency"
	"isolbench/internal/ioctl/iomax"
	"isolbench/internal/iosched/bfq"
	"isolbench/internal/iosched/mqdeadline"
	"isolbench/internal/obs"
	"isolbench/internal/obs/attr"
	"isolbench/internal/shaper"
	"isolbench/internal/sim"
)

// Knob identifies one of the five cgroups I/O control configurations
// the paper evaluates (plus the no-knob baseline).
type Knob int

// The evaluated knobs. KnobMQDeadline means io.prio.class + MQ-DL;
// KnobBFQ means io.bfq.weight + BFQ; KnobIOCost means io.cost +
// io.weight.
const (
	KnobNone Knob = iota
	KnobMQDeadline
	KnobBFQ
	KnobIOMax
	KnobIOLatency
	KnobIOCost
	// KnobAdaptive is the closed-loop shaper (internal/shaper): a
	// feedback controller that retunes io.max per window from io.stat,
	// io.pressure, and SLO burn signals, apportioned by io.weight. It
	// is opt-in (-knob adaptive) and deliberately not part of
	// AllKnobs/ControlKnobs, so the paper's five-row tables stay
	// byte-identical.
	KnobAdaptive
)

// knobSpec is one knob's whole part of the benchmark: its names, how a
// device column is wired for it, and how every experiment configures
// it. knobSpecs holds one spec per Knob, and each knob-specific step in
// the package reads it. A nil hook does nothing; a nil sched runs the
// noop scheduler.
type knobSpec struct {
	names []string // canonical name first, then further ParseKnob spellings
	label string   // Table I row label
	paper bool     // one of the paper's rows (AllKnobs)

	// sched builds a column's I/O scheduler. ctl builds its cgroup
	// controller and records the controller's handles on the fleet
	// and the column. root writes device dev's root-cgroup lines
	// before its column is built.
	sched func(c *Fleet, eng *sim.Engine, ob *obs.Observer) blk.Scheduler
	ctl   func(c *Fleet, col *DeviceColumn, eng *sim.Engine, ob *obs.Observer) blk.Controller
	root  func(c *Fleet, dev int) error

	observe       bool // the control loop reads the observer
	nativeWeights bool // a direct proportional weight (Table I fairness)
	staticShares  bool // uniform fairness runs get equal shares too

	// weight gives group i of n the relative weight w; bps is that
	// weight's share of peak read bandwidth (§VI-A Q4).
	weight func(g *cgroup.Group, i, n int, w, bps float64) error
	// burst applies the knob's strongest prioritization (Q10).
	burst groupSetup
	// tradeoff enumerates the knob's Fig. 7 sweep (Q6-Q9); warmup,
	// when set, replaces the sweep's default warmup.
	tradeoff func(cfg TradeoffConfig) []knobSetting
	warmup   sim.Duration
	// fig2 applies the knob's Fig. 2 panel to apps A, B and C;
	// fig2Weighted marks knobs with a weighted panel beside the uniform
	// one.
	fig2         func(weighted bool, gs [3]*cgroup.Group) error
	fig2Weighted bool
	// neutralize and overhead keep the knob's machinery running
	// without throttling for D1: per group, and per fleet.
	neutralize func(g *cgroup.Group) error
	overhead   func(o *Options)
}

// groupSetup configures a priority group, a best-effort group and the
// root for one run.
type groupSetup func(prio, be, root *cgroup.Group) error

var knobSpecs = []knobSpec{
	KnobNone: {
		names: []string{"none", "noop", "baseline"}, paper: true,
	},
	KnobMQDeadline: {
		names: []string{"mq-deadline", "mqdl", "mq_deadline", "io.prio.class", "prio"},
		label: "io.prio.class + MQ-DL", paper: true,
		sched: func(_ *Fleet, eng *sim.Engine, ob *obs.Observer) blk.Scheduler {
			md := mqdeadline.New(eng, mqdeadline.DefaultConfig())
			md.Obs = ob
			return md
		},
		// Approximate weights with the three priority classes by
		// tercile of the weight distribution.
		weight: func(g *cgroup.Group, i, n int, _, _ float64) error {
			return g.SetFile("io.prio.class", []string{"idle", "be", "rt"}[3*i/n])
		},
		burst: setPair("io.prio.class", "rt", "be", ""),
		// All io.prio.class permutations between priority and BE app.
		tradeoff: func(TradeoffConfig) (out []knobSetting) {
			classes := []string{"rt", "be", "idle"}
			for _, pc := range classes {
				for _, bc := range classes {
					out = append(out, knobSetting{fmt.Sprintf("prio=%s be=%s", pc, bc), setPair("io.prio.class", pc, bc, "")})
				}
			}
			return out
		},
		// Fig. 2b: each app a different class.
		fig2: func(_ bool, gs [3]*cgroup.Group) error {
			return setEach(gs, "io.prio.class", "rt", "be", "idle")
		},
	},
	KnobBFQ: {
		names: []string{"bfq", "io.bfq.weight"},
		label: "io.bfq.weight + BFQ", paper: true, nativeWeights: true,
		sched: func(c *Fleet, eng *sim.Engine, ob *obs.Observer) blk.Scheduler {
			cfg := bfq.DefaultConfig()
			if c.Opts.BFQSliceIdleOff {
				cfg.SliceIdle = 0
			}
			cfg.LowLatency = c.Opts.BFQLowLatency
			bq := bfq.New(eng, cfg)
			bq.Obs = ob
			return bq
		},
		weight: func(g *cgroup.Group, _, _ int, w, _ float64) error {
			return g.SetFile("io.bfq.weight", strconv.Itoa(clampInt(int(w*60), 1, 1000)))
		},
		burst: setPair("io.bfq.weight", "1000", "1", ""),
		// io.bfq.weight for the priority app from 1 to 1000.
		tradeoff: func(cfg TradeoffConfig) (out []knobSetting) {
			for i := 0; i < cfg.Steps; i++ {
				w := clampInt(1+i*999/(cfg.Steps-1), 1, 1000)
				out = append(out, knobSetting{fmt.Sprintf("prio-weight=%d", w), setPair("io.bfq.weight", strconv.Itoa(w), "100", "")})
			}
			return out
		},
		// Fig. 2c (uniform) / 2d (weights).
		fig2Weighted: true,
		fig2: func(weighted bool, gs [3]*cgroup.Group) error {
			if weighted {
				return setEach(gs, "io.bfq.weight", "400", "200", "100")
			}
			return setEach(gs, "io.bfq.weight", "100", "100", "100")
		},
	},
	KnobIOMax: {
		names: []string{"io.max", "iomax", "max"},
		label: "io.max", paper: true,
		ctl: func(c *Fleet, col *DeviceColumn, eng *sim.Engine, ob *obs.Observer) blk.Controller {
			im := iomax.New(eng, c.Tree, DevName(col.Index))
			im.Obs = ob
			return im
		},
		// io.max has no notion of weights: practitioners translate
		// shares into static maximums (§VI-A), so uniform runs also
		// get equal caps.
		staticShares: true,
		weight: func(g *cgroup.Group, _, _ int, _, bps float64) error {
			return g.SetFile("io.max", fmt.Sprintf("rbps=%.0f wbps=%.0f", bps, bps))
		},
		burst: func(_, be, _ *cgroup.Group) error {
			return be.SetFile("io.max", "rbps=536870912 wbps=536870912") // 512 MiB/s
		},
		// BE bandwidth cap from 80 MiB/s to saturation.
		tradeoff: func(cfg TradeoffConfig) (out []knobSetting) {
			lo, hi := 80.0*(1<<20), 2.3*(1<<30)
			for i := 0; i < cfg.Steps; i++ {
				bw := lo + float64(i)*(hi-lo)/float64(cfg.Steps-1)
				max := fmt.Sprintf("rbps=%.0f wbps=%.0f", bw, bw)
				out = append(out, knobSetting{fmt.Sprintf("be-max=%.0fMiB/s", bw/(1<<20)), func(_, be, _ *cgroup.Group) error {
					return be.SetFile("io.max", max)
				}})
			}
			return out
		},
		// Fig. 2e: 1 GiB/s cap per group.
		fig2: func(_ bool, gs [3]*cgroup.Group) error {
			return setEach(gs, "io.max", "rbps=1073741824", "rbps=1073741824", "rbps=1073741824")
		},
		neutralize: func(g *cgroup.Group) error {
			return g.SetFile("io.max", "rbps=1000000000000 wbps=1000000000000")
		},
	},
	KnobIOLatency: {
		names: []string{"io.latency", "iolatency", "latency"},
		label: "io.latency", paper: true,
		ctl: func(c *Fleet, col *DeviceColumn, eng *sim.Engine, ob *obs.Observer) blk.Controller {
			il := iolatency.New(eng, c.Tree, DevName(col.Index), c.Opts.Profile.MaxQD)
			il.Obs = ob
			c.IOLat = append(c.IOLat, il)
			col.IOLat = il
			return il
		},
		// Approximate weights with latency targets: higher weight,
		// tighter target.
		weight: func(g *cgroup.Group, _, _ int, w, _ float64) error {
			return g.SetFile("io.latency", fmt.Sprintf("target=%d", int64(1000/w)))
		},
		burst: func(prio, _, _ *cgroup.Group) error {
			return prio.SetFile("io.latency", "target=150")
		},
		// Priority P90 target from 75 us to 1.2 ms.
		tradeoff: func(cfg TradeoffConfig) (out []knobSetting) {
			for i := 0; i < cfg.Steps; i++ {
				us := 75 + i*(1200-75)/(cfg.Steps-1)
				target := fmt.Sprintf("target=%d", us)
				out = append(out, knobSetting{fmt.Sprintf("target=%dus", us), func(prio, _, _ *cgroup.Group) error {
					return prio.SetFile("io.latency", target)
				}})
			}
			return out
		},
		// io.latency converges over many 500 ms windows (QD is halved
		// at most once per window): measure steady state.
		warmup: 6 * sim.Second,
		// Fig. 2f: A protected at 100 us.
		fig2: func(_ bool, gs [3]*cgroup.Group) error {
			return gs[0].SetFile("io.latency", "target=100")
		},
		neutralize: func(g *cgroup.Group) error {
			return g.SetFile("io.latency", "target=5000000") // 5 s
		},
	},
	KnobIOCost: {
		names: []string{"io.cost", "iocost", "cost", "io.weight"},
		label: "io.cost + io.weight", paper: true, nativeWeights: true,
		ctl: func(c *Fleet, col *DeviceColumn, eng *sim.Engine, ob *obs.Observer) blk.Controller {
			ic := iocost.New(eng, c.Tree, DevName(col.Index))
			ic.Obs = ob
			c.IOCost = append(c.IOCost, ic)
			col.IOCost = ic
			return ic
		},
		// The model and QoS must be on the root before the controller
		// attaches.
		root:   (*Fleet).configureIOCostRoot,
		weight: setIOWeight,
		burst:  setPair("io.weight", "10000", "100", "enable=1 rpct=95 rlat=150 wpct=95 wlat=500 min=50.00 max=125.00"),
		// io.weight 10000 vs 100. Batch: sweep the qos "min" window
		// with a fixed 500 us P95 read target (§VI-B Q9); min=max pins
		// the vrate scaling window at the swept level. LC: sweep the
		// P99 read latency target.
		tradeoff: func(cfg TradeoffConfig) (out []knobSetting) {
			for i := 0; i < cfg.Steps; i++ {
				if cfg.Kind == PriorityBatch {
					min := 25 + float64(i)*(150-25)/float64(cfg.Steps-1)
					qos := fmt.Sprintf("enable=1 rpct=95 rlat=500 wpct=95 wlat=1000 min=%.2f max=%.2f", min, min)
					out = append(out, knobSetting{fmt.Sprintf("weight=10000 qos-min=%.0f%%", min), setPair("io.weight", "10000", "100", qos)})
					continue
				}
				us := 100 + i*(1200-100)/(cfg.Steps-1)
				qos := fmt.Sprintf("enable=1 rpct=99 rlat=%d wpct=95 wlat=1000 min=50.00 max=125.00", us)
				out = append(out, knobSetting{fmt.Sprintf("weight=10000 rlat=%dus", us), setPair("io.weight", "10000", "100", qos)})
			}
			return out
		},
		// Fig. 2g (uniform) / 2h (weights); P95 100 us target.
		fig2Weighted: true,
		fig2: func(weighted bool, gs [3]*cgroup.Group) error {
			if weighted {
				return setEach(gs, "io.weight", "800", "200", "50")
			}
			return setEach(gs, "io.weight", "100", "100", "100")
		},
	},
	KnobAdaptive: {
		names: []string{"adaptive", "io.shaper"},
		label: "adaptive shaper (io.max + io.weight)", nativeWeights: true,
		// The shaper enforces through io.max, but rewrites the limits
		// every window, so its throttle holds are blamed on its
		// decisions (LayerShaper) rather than on static io.max
		// configuration.
		ctl: func(c *Fleet, col *DeviceColumn, eng *sim.Engine, ob *obs.Observer) blk.Controller {
			im := iomax.New(eng, c.Tree, DevName(col.Index))
			im.Obs = ob
			im.HoldLayer = attr.LayerShaper
			sh := shaper.New(eng, c.Tree, DevName(col.Index), c.Opts.Shaper)
			sh.Obs = ob
			for _, g := range c.Groups {
				sh.Register(g)
			}
			c.Shapers = append(c.Shapers, sh)
			col.Shaper = sh
			return im
		},
		// The shaper estimates from io.stat/io.pressure/SLO deltas. In
		// a sharded fleet each column's shaper reads its own shard's
		// observer, which holds the complete state of every cgroup with
		// traffic on that column (cgroups bind to one shard), so the
		// control loop is byte-identical across -shards values.
		observe: true,
		// The shaper apportions its capacity budget by io.weight, so
		// it shares io.cost's native weight file.
		weight: setIOWeight,
		// Maximum io.weight skew: the shaper grants the bursty app
		// nearly the whole capacity budget the moment it has traffic.
		burst: setPair("io.weight", "10000", "100", ""),
		// Sweep the priority app's io.weight from parity to the
		// maximum against a fixed BE 100.
		tradeoff: func(cfg TradeoffConfig) (out []knobSetting) {
			for i := 0; i < cfg.Steps; i++ {
				w := clampInt(100+i*(10000-100)/(cfg.Steps-1), 1, 10000)
				out = append(out, knobSetting{fmt.Sprintf("prio-weight=%d", w), setPair("io.weight", strconv.Itoa(w), "100", "")})
			}
			return out
		},
		// Its control loop, estimators and window ticks all run (that
		// machinery is the measured overhead), but a cap floor far
		// beyond device saturation means it never throttles.
		overhead: func(o *Options) {
			o.Shaper.FloorBps = 1e12
			o.Shaper.CeilingBps = 2e12
		},
	},
}

// spec returns k's registry entry; a Knob outside the registry gets
// the zero spec, every hook nil.
func (k Knob) spec() knobSpec {
	if k >= 0 && int(k) < len(knobSpecs) {
		return knobSpecs[k]
	}
	return knobSpec{}
}

// setPair returns a setup that writes file=pv on the priority group and
// file=bv on the BE group, then, when qos is set, device 0's root
// io.cost.qos.
func setPair(file, pv, bv, qos string) groupSetup {
	return func(prio, be, root *cgroup.Group) error {
		if err := prio.SetFile(file, pv); err != nil {
			return err
		}
		if err := be.SetFile(file, bv); err != nil || qos == "" {
			return err
		}
		return root.SetFile("io.cost.qos", DevName(0)+" "+qos)
	}
}

// setEach writes file=vals[i] on group gs[i], in order.
func setEach(gs [3]*cgroup.Group, file string, vals ...string) error {
	for i, v := range vals {
		if err := gs[i].SetFile(file, v); err != nil {
			return err
		}
	}
	return nil
}

// setIOWeight maps relative weight w onto io.weight.
func setIOWeight(g *cgroup.Group, _, _ int, w, _ float64) error {
	return g.SetFile("io.weight", strconv.Itoa(clampInt(int(w*100), 1, 10000)))
}

// AllKnobs returns every knob including the baseline, in the paper's
// presentation order.
func AllKnobs() []Knob {
	var out []Knob
	for k, s := range knobSpecs {
		if s.paper {
			out = append(out, Knob(k))
		}
	}
	return out
}

// ControlKnobs returns the five actual control knobs (no baseline).
func ControlKnobs() []Knob { return AllKnobs()[1:] }

// KnobNames returns every knob's name in Knob order, the opt-in
// adaptive knob included.
func KnobNames() []string {
	out := make([]string, len(knobSpecs))
	for k, s := range knobSpecs {
		out[k] = s.names[0]
	}
	return out
}

func (k Knob) String() string {
	if s := k.spec(); s.names != nil {
		return s.names[0]
	}
	return fmt.Sprintf("knob(%d)", int(k))
}

// ParseKnob resolves a knob name (several aliases accepted).
func ParseKnob(s string) (Knob, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for k, spec := range knobSpecs {
		if slices.Contains(spec.names, name) {
			return Knob(k), nil
		}
	}
	return KnobNone, fmt.Errorf("unknown knob %q", s)
}

// UsesScheduler reports whether the knob is an I/O scheduler
// configuration rather than a cgroup controller.
func (k Knob) UsesScheduler() bool { return k.spec().sched != nil }

// WeightedFig2 reports whether the knob's Fig. 2 illustration has a
// weighted panel beside the uniform one.
func (k Knob) WeightedFig2() bool { return k.spec().fig2Weighted }
