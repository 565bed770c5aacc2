package core

import (
	"testing"

	"isolbench/internal/blk"
	"isolbench/internal/cgroup"
	"isolbench/internal/ioctl/iomax"
	"isolbench/internal/obs"
	"isolbench/internal/sim"
)

// TestRegistryToyKnob adds a knob by touching only the registry: a noop
// scheduler plus an io.max controller with fixed caps. Every experiment
// family must then run on it under the paranoid checker.
func TestRegistryToyKnob(t *testing.T) {
	const capBps = 256 << 20
	const capLine = "rbps=268435456 wbps=268435456"
	capBE := func(_, be, _ *cgroup.Group) error { return be.SetFile("io.max", capLine) }
	k := registerKnob(t, knobSpec{
		names: []string{"toy", "toy.max"},
		label: "toy (fixed io.max)",
		ctl: func(c *Fleet, col *DeviceColumn, eng *sim.Engine, ob *obs.Observer) blk.Controller {
			im := iomax.New(eng, c.Tree, DevName(col.Index))
			im.Obs = ob
			return im
		},
		weight: func(g *cgroup.Group, _, _ int, _, _ float64) error { return g.SetFile("io.max", capLine) },
		burst:  capBE,
		tradeoff: func(TradeoffConfig) []knobSetting {
			return []knobSetting{{name: "be-max=256MiB/s", apply: capBE}}
		},
		fig2: func(_ bool, gs [3]*cgroup.Group) error { return setEach(gs, "io.max", capLine, capLine, capLine) },
	})

	for _, in := range []string{"toy", " TOY.max "} {
		if got, err := ParseKnob(in); err != nil || got != k {
			t.Fatalf("ParseKnob(%q) = %v, %v; want %v", in, got, err, k)
		}
	}
	if k.String() != "toy" {
		t.Fatalf("String() = %q", k)
	}
	for _, a := range AllKnobs() {
		if a == k {
			t.Fatal("toy knob leaked into AllKnobs")
		}
	}

	ctl := RunControl{Paranoid: true}
	cl, err := NewFleet(Options{Knob: k, Devices: 2, Seed: 1, Control: ctl})
	if err != nil {
		t.Fatal(err)
	}
	if s, c := cl.Queues[1].Scheduler().Name(), cl.Queues[1].Controller(); s != "none" || c == nil || c.Name() != "io.max" {
		t.Fatalf("column wiring: scheduler %q, controller %v", s, c)
	}

	// Fig. 2: every app is held to the cap (its 1.5 GiB/s rate limit
	// would otherwise show).
	series, err := RunIllustrate(IllustrateConfig{Knob: k, TimeScale: 0.01, Seed: 1, Control: ctl})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("fig2: %d series", len(series))
	}
	for _, s := range series {
		for _, p := range s.Points {
			if p.Rate > 1.1*capBps {
				t.Fatalf("fig2: app %s at %.0f B/s, above the %d B/s cap", s.App, p.Rate, capBps)
			}
		}
	}

	pts, err := RunTradeoff(TradeoffConfig{Knob: k, Warmup: 50 * sim.Millisecond, Measure: 200 * sim.Millisecond,
		Seed: 1, Workers: 1, Control: ctl})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Config != "be-max=256MiB/s" || pts[0].PrioBW <= 0 {
		t.Fatalf("tradeoff: %+v", pts)
	}

	// Weighted, so the weight hook caps both groups.
	fr, err := RunFairness(FairnessConfig{Knob: k, Groups: 2, AppsPerGroup: 1, Weighted: true, Repeats: 1,
		Warmup: 50 * sim.Millisecond, Measure: 200 * sim.Millisecond, Seed: 1, Workers: 1, Control: ctl})
	if err != nil {
		t.Fatal(err)
	}
	if agg := fr.AggBW.Mean(); agg <= 0 || agg > 2*1.1*capBps {
		t.Fatalf("fairness: aggregate %.0f B/s with two groups capped at %d B/s", agg, capBps)
	}

	br, err := RunBurst(BurstConfig{Knob: k, Lead: 200 * sim.Millisecond, Tail: 600 * sim.Millisecond, Seed: 1, Control: ctl})
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Timeline) == 0 || br.SteadyBW <= 0 {
		t.Fatalf("burst: %+v", br)
	}
}
