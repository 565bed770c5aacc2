package main

import (
	"fmt"
	"slices"
	"time"

	"isolbench/internal/core"
	"isolbench/internal/fault"
	"isolbench/internal/obs"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
	"isolbench/internal/workload/gen"
)

// cell is one fleet a workload builds, runs and checks. populate makes
// the NewGroup/AddApp/AddTenant/AddReplay calls (and may pre-schedule
// churn); everything it does counts as set-up time.
type cell struct {
	name     string
	opts     core.Options
	populate func(f *core.Fleet, st *cellState) error
	warmup   sim.Duration
	measure  sim.Duration
}

// runSlices splits every measurement window into RunTo steps; the
// engines' pending-event depth is sampled between them.
const runSlices = 5

// cellState is what populate and the churn events share with the
// collector: tenants added, replay sources to check, errors raised
// inside engine callbacks.
type cellState struct {
	tenantAdds int
	replays    []*workload.ReplayApp
	errs       []string
}

// workloads maps each benchmark workload to its cells for a seed.
var workloads = map[string]func(seed uint64) []cell{
	"paper-cells":     paperCells,
	"fleet-churn":     fleetChurn,
	"observed-replay": observedReplay,
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-cells", "fleet-churn", "observed-replay"}

// overheadOptions mirrors the D1 experiments (§V): every knob's
// machinery runs, but none of it throttles — io.cost gets a model far
// beyond saturation, BFQ runs with slice_idle off, and the adaptive
// shaper's cap floor sits above device saturation.
func overheadOptions(k core.Knob, cores int, seed uint64) core.Options {
	o := core.Options{
		Knob:            k,
		Cores:           cores,
		Seed:            seed,
		BFQSliceIdleOff: true,
		IOCostModel:     core.UnthrottledCostModel,
		IOCostQoS:       core.UnthrottledCostQoS,
	}
	if k == core.KnobAdaptive {
		o.Shaper.FloorBps = 1e12
		o.Shaper.CeilingBps = 2e12
	}
	return o
}

// fig4Cell is the Fig. 4 single-SSD saturation cell: 17 QD256 4 KiB
// random-read batch apps, one cgroup each, on 10 cores.
func fig4Cell(k core.Knob, seed uint64) cell {
	const apps = 17
	return cell{
		name: "fig4/" + k.String(),
		opts: overheadOptions(k, 10, seed+apps),
		populate: func(f *core.Fleet, _ *cellState) error {
			for i := 0; i < apps; i++ {
				g, err := f.NewGroup(fmt.Sprintf("batch%d", i))
				if err != nil {
					return err
				}
				if err := core.NeutralizeKnob(k, g); err != nil {
					return err
				}
				spec := workload.BatchApp(fmt.Sprintf("batch%d", i), g)
				spec.Core = i
				if _, err := f.AddApp(spec, 0); err != nil {
					return err
				}
			}
			return nil
		},
		warmup:  100 * sim.Millisecond,
		measure: 200 * sim.Millisecond,
	}
}

// fig3Cell is the Fig. 3 QD1 cell: one LC-app (4 KiB random reads at
// QD1) alone on one core and one SSD.
func fig3Cell(k core.Knob, seed uint64) cell {
	return cell{
		name: "fig3/" + k.String(),
		opts: overheadOptions(k, 1, seed+1),
		populate: func(f *core.Fleet, _ *cellState) error {
			g, err := f.NewGroup("lc0")
			if err != nil {
				return err
			}
			if err := core.NeutralizeKnob(k, g); err != nil {
				return err
			}
			spec := workload.LCApp("lc0", g)
			spec.Core = 0
			_, err = f.AddApp(spec, 0)
			return err
		},
		warmup:  100 * sim.Millisecond,
		measure: 2 * sim.Second,
	}
}

// paperCells: for none and each of the five knobs, the Fig. 4
// saturation cell and the Fig. 3 QD1 cell.
func paperCells(seed uint64) []cell {
	var cs []cell
	for _, k := range core.AllKnobs() {
		cs = append(cs, fig4Cell(k, seed), fig3Cell(k, seed))
	}
	return cs
}

// Fleet-churn sizing: 1000 QD1 LC-app tenants round-robin over 4 SSDs
// and 20 cores, replaced one at a time at Poisson churn events. Rate
// and windows are core.FleetScaleConfig's defaults, so the churn mix
// is the one the churn panel of `-exp fleetscale` runs at 1000 tenants.
const (
	churnTenants = 1000
	churnRate    = 50 // churn events per simulated second
	churnWarmup  = 100 * sim.Millisecond
	churnMeasure = 1 * sim.Second
)

// fleetChurn is the io.cost fleet under tenant churn, run at 2 shards,
// plus the io.cost QD1 probe that carries the latency anchor.
func fleetChurn(seed uint64) []cell {
	return []cell{churnCell(seed, 2), fig3Cell(core.KnobIOCost, seed)}
}

// churnCell builds the churning fleet at the given shard count (the
// tests compare 1 against 2).
func churnCell(seed uint64, shards int) cell {
	const cores = 20
	tenant := func(i int) core.TenantSpec {
		spec := workload.LCApp("", nil)
		spec.Core = i % cores
		return core.TenantSpec{Name: fmt.Sprintf("t%d", i), Apps: []workload.Spec{spec}}
	}
	c := cell{
		name: "churn/io.cost",
		opts: core.Options{
			Knob: core.KnobIOCost, Devices: 4, Cores: cores, Seed: seed,
			Control: core.RunControl{Shards: shards},
		},
		warmup:  churnWarmup,
		measure: churnMeasure,
	}
	c.populate = func(f *core.Fleet, st *cellState) error {
		var live []*core.Tenant
		add := func(i int) error {
			t, err := f.AddTenant(tenant(i))
			if err != nil {
				return err
			}
			live = append(live, t)
			st.tenantAdds++
			return nil
		}
		for i := 0; i < churnTenants; i++ {
			if err := add(i); err != nil {
				return err
			}
		}
		// Churn events go on the global engine before the run starts, so
		// the sharded runtime treats them as window barriers. Their
		// inter-arrival draws come from a stream of their own.
		rng := sim.NewRNG(seed*5851 + 77)
		mean := sim.Duration(float64(sim.Second) / churnRate)
		start := f.Eng.Now().Add(c.warmup)
		end := start.Add(c.measure)
		next := churnTenants
		for t := start.Add(rng.ExpDuration(mean)); t < end; t = t.Add(rng.ExpDuration(mean)) {
			f.Eng.At(t, func() {
				f.RemoveTenant(live[0], nil)
				live = live[1:]
				if err := add(next); err != nil {
					st.errs = append(st.errs, "churn add: "+err.Error())
				}
				next++
			})
		}
		return nil
	}
	return c
}

// replayShape is the open-loop heavytail tenant: 30% writes with
// bounded-Pareto sizes over 64 Zipf-popular user streams.
func replayShape(seed uint64, dur sim.Duration) gen.Shape {
	return gen.Shape{
		Seed: seed, Duration: dur, BaseIOPS: 6000,
		SizeAlpha: 1.3, SizeCap: 512 << 10, ReadFrac: 0.7, Users: 64,
	}
}

// observedReplay: {io.cost, adaptive} x {healthy, gcstorm} on two
// preconditioned SSDs, each running a heavytail replay tenant
// (io.weight 400) beside two QD256 batch neighbours (io.weight 100),
// with observe, attr, SLO and paranoid on and two shards requested,
// plus a QD1 probe per knob that carries the latency anchor.
func observedReplay(seed uint64) []cell {
	var cs []cell
	knobs := []core.Knob{core.KnobIOCost, core.KnobAdaptive}
	for _, k := range knobs {
		for _, fp := range []fault.Profile{{}, fault.GCStormProfile()} {
			cs = append(cs, replayCell(k, fp, seed))
		}
	}
	for _, k := range knobs {
		cs = append(cs, fig3Cell(k, seed))
	}
	return cs
}

func replayCell(k core.Knob, fp fault.Profile, seed uint64) cell {
	const devices = 2
	name := "healthy"
	if fp.Enabled() {
		name = fp.Name
	}
	c := cell{
		name: "replay/" + k.String() + "/" + name,
		opts: core.Options{
			Knob: k, Devices: devices, Cores: 3 * devices, Seed: seed,
			Precondition: true, Fault: fp, Attr: true,
			SLO:     obs.SLOConfig{P99: 2 * sim.Millisecond, FastWindow: 50 * sim.Millisecond, SlowWindow: 250 * sim.Millisecond},
			Control: core.RunControl{Paranoid: true, Shards: 2},
		},
		warmup:  100 * sim.Millisecond,
		measure: 600 * sim.Millisecond,
	}
	c.populate = func(f *core.Fleet, st *cellState) error {
		for d := 0; d < devices; d++ {
			nbr, err := f.NewGroup(fmt.Sprintf("nbr%d", d))
			if err != nil {
				return err
			}
			rep, err := f.NewGroup(fmt.Sprintf("replay%d", d))
			if err != nil {
				return err
			}
			if err := nbr.SetFile("io.weight", "100"); err != nil {
				return err
			}
			if err := rep.SetFile("io.weight", "400"); err != nil {
				return err
			}
			// Cores d, d+2, d+4 all serve device d, so the placement is
			// valid for the sharded runtime too.
			for j := 0; j < 2; j++ {
				spec := workload.BatchApp(fmt.Sprintf("nbr%d-%d", d, j), nbr)
				spec.Core = d + devices*j
				if _, err := f.AddApp(spec, d); err != nil {
					return err
				}
			}
			src := replayShape(seed*31+uint64(d)+1, c.warmup+c.measure).Source()
			rp, err := f.AddReplay(src, workload.ReplayConfig{
				Name: fmt.Sprintf("replay%d", d), Group: rep, Core: d + 2*devices,
			}, d)
			if err != nil {
				return err
			}
			st.replays = append(st.replays, rp)
		}
		return nil
	}
	return c
}

// engines returns the fleet's distinct event engines: the global one
// and, when sharded, every shard engine.
func engines(f *core.Fleet) []*sim.Engine {
	es := []*sim.Engine{f.Eng}
	for i := range f.Devices {
		e := f.EngFor(i)
		if !slices.Contains(es, e) {
			es = append(es, e)
		}
	}
	return es
}

// cellOut is one executed cell: its host times, counters, simulated
// statistics and any problem found.
type cellOut struct {
	name                  string
	setup, run, result    time.Duration
	counters              counters
	res                   core.Result
	replayStats           []workload.Stats
	digest                string
	meanUs, p99us, bwGiBs float64
	// windowStartIOs is the device completions when the measurement
	// window opened.
	windowStartIOs uint64
	problems       []string
}

// runCell builds, runs and checks one cell. Only calls into the
// program are inside the timers; a failure at any step is recorded as
// a problem and ends the cell.
func runCell(c cell) *cellOut {
	out := &cellOut{name: c.name}
	st := &cellState{}

	t0 := time.Now()
	f, err := core.NewFleet(c.opts)
	if err == nil {
		err = c.populate(f, st)
	}
	out.setup = time.Since(t0)
	if err != nil {
		out.problems = append(out.problems, "setup: "+err.Error())
		return out
	}

	es := engines(f)
	t1 := time.Now()
	err = f.RunPhase(c.warmup, 0)
	start := f.Eng.Now()
	for _, d := range f.Devices {
		s := d.Stats()
		out.windowStartIOs += s.ReadsCompleted + s.WritesCompleted
	}
	for s := 1; err == nil && s <= runSlices; s++ {
		out.counters.samplePending(es)
		err = f.RunTo(start.Add(c.measure * sim.Duration(s) / runSlices))
	}
	out.run = time.Since(t1)
	if err != nil {
		out.problems = append(out.problems, "run: "+err.Error())
		return out
	}
	out.counters.samplePending(es)

	t2 := time.Now()
	out.res = f.Result()
	for _, rp := range st.replays {
		out.replayStats = append(out.replayStats, rp.Stats())
		if err := rp.Err(); err != nil {
			out.problems = append(out.problems, "replay source: "+err.Error())
		}
	}
	out.counters.collect(f, es, out, st.tenantAdds, c.warmup+c.measure)
	out.digest = digest(out.res, out.replayStats)
	h := f.MergedHistogram()
	out.meanUs = h.Mean() / 1e3
	out.p99us = float64(h.Percentile(99)) / 1e3
	out.bwGiBs = out.res.AggregateBW / (1 << 30)
	out.problems = append(out.problems, st.errs...)
	out.problems = append(out.problems, identities(f, out)...)
	if c.opts.Control.Paranoid {
		if err := f.CheckInvariants(); err != nil {
			out.problems = append(out.problems, err.Error())
		}
	}
	out.result = time.Since(t2)
	return out
}
