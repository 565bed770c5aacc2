package core

import (
	"strings"
	"testing"

	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

func TestParseKnob(t *testing.T) {
	// Every accepted alias, by knob. The first alias of each knob is
	// its canonical String() form, pinning the round-trip below.
	aliases := []struct {
		knob    Knob
		aliases []string
	}{
		{KnobNone, []string{"none", "noop", "baseline"}},
		{KnobMQDeadline, []string{"mq-deadline", "mqdl", "mq_deadline", "io.prio.class", "prio"}},
		{KnobBFQ, []string{"bfq", "io.bfq.weight"}},
		{KnobIOMax, []string{"io.max", "iomax", "max"}},
		{KnobIOLatency, []string{"io.latency", "iolatency", "latency"}},
		{KnobIOCost, []string{"io.cost", "iocost", "cost", "io.weight"}},
		{KnobAdaptive, []string{"adaptive", "io.shaper"}},
	}
	for _, tc := range aliases {
		for _, in := range tc.aliases {
			got, err := ParseKnob(in)
			if err != nil || got != tc.knob {
				t.Fatalf("ParseKnob(%q) = %v, %v; want %v", in, got, err, tc.knob)
			}
			// Aliases are case/space-insensitive.
			got, err = ParseKnob("  " + strings.ToUpper(in) + " ")
			if err != nil || got != tc.knob {
				t.Fatalf("ParseKnob(%q, decorated) = %v, %v; want %v", in, got, err, tc.knob)
			}
		}
		// String() must be ParseKnob's inverse on the canonical name.
		if got := tc.knob.String(); got != tc.aliases[0] {
			t.Fatalf("%v.String() = %q, want canonical alias %q", tc.knob, got, tc.aliases[0])
		}
		rt, err := ParseKnob(tc.knob.String())
		if err != nil || rt != tc.knob {
			t.Fatalf("round-trip ParseKnob(%v.String()) = %v, %v", tc.knob, rt, err)
		}
	}
	for _, bad := range []string{"cfq", "", "io.adaptive", "shaper", "io.max2"} {
		if k, err := ParseKnob(bad); err == nil {
			t.Fatalf("ParseKnob(%q) accepted as %v, want error", bad, k)
		}
	}
	// KnobNames lists the canonical names in Knob order (-knob help).
	var names []string
	for _, tc := range aliases {
		names = append(names, tc.aliases[0])
	}
	if got := strings.Join(KnobNames(), "|"); got != strings.Join(names, "|") {
		t.Fatalf("KnobNames() = %s", got)
	}
	// The adaptive shaper is opt-in: the paper's knob lists must not
	// grow a sixth control row (the five-row tables are golden-pinned).
	if len(AllKnobs()) != 6 || len(ControlKnobs()) != 5 {
		t.Fatal("knob lists wrong")
	}
	for _, k := range append(AllKnobs(), KnobAdaptive) {
		if k.String() == "" || strings.HasPrefix(k.String(), "knob(") {
			t.Fatalf("bad knob name %q", k)
		}
	}
	for _, k := range AllKnobs() {
		if k == KnobAdaptive {
			t.Fatal("KnobAdaptive leaked into AllKnobs")
		}
	}
	for _, k := range ControlKnobs() {
		if k == KnobAdaptive {
			t.Fatal("KnobAdaptive leaked into ControlKnobs")
		}
	}
	if !KnobBFQ.UsesScheduler() || KnobIOMax.UsesScheduler() || KnobAdaptive.UsesScheduler() {
		t.Fatal("UsesScheduler wrong")
	}
}

// TestFleetAssembly builds a two-device fleet for every registered
// knob and checks its column wiring against the knob's spec.
func TestFleetAssembly(t *testing.T) {
	for i, s := range knobSpecs {
		k := Knob(i)
		cl, err := NewFleet(Options{Knob: k, Devices: 2, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if len(cl.Devices) != 2 || len(cl.Queues) != 2 {
			t.Fatalf("%v: device wiring", k)
		}
		// A scheduler knob is named after its scheduler and has no
		// controller; every other knob runs the noop scheduler.
		wantSched := "none"
		if k.UsesScheduler() {
			wantSched = k.String()
		}
		for d, q := range cl.Queues {
			if got := q.Scheduler().Name(); got != wantSched {
				t.Fatalf("%v: device %d scheduler = %q, want %q", k, d, got, wantSched)
			}
			if hasCtl := q.Controller() != nil; hasCtl != (s.ctl != nil) || hasCtl && k.UsesScheduler() {
				t.Fatalf("%v: device %d controller = %v", k, d, q.Controller())
			}
		}
		if k == KnobIOCost {
			if len(cl.IOCost) != 2 {
				t.Fatalf("io.cost controllers not registered")
			}
			if v, err := cl.Tree.Root().ReadFile("io.cost.model"); err != nil || v == "" {
				t.Fatalf("io.cost.model not configured: %q %v", v, err)
			}
		}
	}
}

func TestClusterRunPhase(t *testing.T) {
	cl, err := NewFleet(Options{Knob: KnobNone, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cl.NewGroup("t0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AddApp(workload.LCApp("lc", g), 0); err != nil {
		t.Fatal(err)
	}
	cl.RunPhase(50*sim.Millisecond, 200*sim.Millisecond)
	res := cl.Result()
	if res.IOs == 0 || res.AggregateBW == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Span != 200*sim.Millisecond {
		t.Fatalf("span = %v", res.Span)
	}
	if len(res.Groups) != 1 || res.Groups[0].Name != "t0" {
		t.Fatalf("groups = %+v", res.Groups)
	}
	if res.CPUUtil <= 0 || res.CPUUtil > 1 {
		t.Fatalf("cpu util = %v", res.CPUUtil)
	}
	if res.CtxPerIO < 0.99 || res.CtxPerIO > 1.01 {
		t.Fatalf("ctx/io = %v", res.CtxPerIO)
	}
	// A second phase opens a fresh window.
	cl.RunPhase(0, 100*sim.Millisecond)
	res2 := cl.Result()
	if res2.Span != 100*sim.Millisecond || res2.IOs == 0 {
		t.Fatalf("second phase: %+v", res2)
	}
}

func TestClusterBadDeviceIndex(t *testing.T) {
	cl, _ := NewFleet(Options{Knob: KnobNone})
	g, _ := cl.NewGroup("g")
	if _, err := cl.AddApp(workload.LCApp("lc", g), 7); err == nil {
		t.Fatal("bad device index accepted")
	}
}

func TestLatencyScalingShape(t *testing.T) {
	pts, err := RunLatencyScaling(LatencyScalingConfig{
		Knob: KnobNone, AppCounts: []int{1, 16}, Measure: 300 * sim.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// More apps on one core: higher P99, higher CPU.
	if pts[1].P99 <= pts[0].P99 {
		t.Fatalf("P99 did not grow with load: %v vs %v", pts[0].P99, pts[1].P99)
	}
	if pts[1].CPUUtil <= pts[0].CPUUtil || pts[1].CPUUtil < 0.9 {
		t.Fatalf("16 LC-apps should saturate the core: %v", pts[1].CPUUtil)
	}
	if len(pts[0].CDF) == 0 {
		t.Fatal("CDF missing")
	}
}

func TestBandwidthScalingShape(t *testing.T) {
	none, err := RunBandwidthScaling(BandwidthScalingConfig{
		Knob: KnobNone, AppCounts: []int{1, 9}, Measure: 300 * sim.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	bfq, err := RunBandwidthScaling(BandwidthScalingConfig{
		Knob: KnobBFQ, AppCounts: []int{1, 9}, Measure: 300 * sim.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if none[1].AggregateBW <= none[0].AggregateBW {
		t.Fatal("bandwidth did not scale with apps")
	}
	// O2: BFQ cannot saturate the device.
	if bfq[1].AggregateBW > none[1].AggregateBW/2 {
		t.Fatalf("BFQ bandwidth %.2f vs none %.2f: plateau missing",
			bfq[1].AggregateBW/(1<<30), none[1].AggregateBW/(1<<30))
	}
}

func TestFairnessUniform(t *testing.T) {
	r, err := RunFairness(FairnessConfig{
		Knob: KnobNone, Groups: 2, Repeats: 2, Measure: 300 * sim.Millisecond, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Jain.Mean() < 0.98 {
		t.Fatalf("uniform fairness = %v", r.Jain.Mean())
	}
	if r.Jain.N() != 2 {
		t.Fatalf("repeats = %d", r.Jain.N())
	}
	if len(r.GroupBW) != 2 {
		t.Fatalf("group bws = %v", r.GroupBW)
	}
}

func TestFairnessWeightedIOCost(t *testing.T) {
	r, err := RunFairness(FairnessConfig{
		Knob: KnobIOCost, Groups: 4, Weighted: true, Repeats: 1,
		Measure: 500 * sim.Millisecond, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Jain.Mean() < 0.9 {
		t.Fatalf("io.cost weighted fairness = %v, want >= 0.9 (O4)", r.Jain.Mean())
	}
	// And the weighted shares must actually be unequal in absolute
	// terms (weight 4 group near 4x weight 1 group).
	if r.GroupBW[3] < 2*r.GroupBW[0] {
		t.Fatalf("weights had no effect: %v", r.GroupBW)
	}
}

func TestFairnessWeightedMQDLIsPoor(t *testing.T) {
	r, err := RunFairness(FairnessConfig{
		Knob: KnobMQDeadline, Groups: 4, Weighted: true, Repeats: 1,
		Measure: 500 * sim.Millisecond, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Jain.Mean() > 0.8 {
		t.Fatalf("MQ-DL weighted fairness = %v, should be poor (O4)", r.Jain.Mean())
	}
}

func TestTradeoffPareto(t *testing.T) {
	pts := []TradeoffPoint{
		{Config: "a", AggregateBW: 1, PrioBW: 3, PrioP99: 100},
		{Config: "b", AggregateBW: 2, PrioBW: 2, PrioP99: 200},
		{Config: "c", AggregateBW: 1.5, PrioBW: 1, PrioP99: 300}, // dominated by b
		{Config: "d", AggregateBW: 3, PrioBW: 1, PrioP99: 400},
	}
	MarkPareto(pts, PriorityBatch)
	want := []bool{true, true, false, true}
	for i, p := range pts {
		if p.Pareto != want[i] {
			t.Fatalf("pareto[%d] = %v", i, p.Pareto)
		}
	}
	MarkPareto(pts, PriorityLC)
	// For latency, lower P99 is better: a dominates nothing... a has
	// lowest P99 and lowest agg; d has highest agg but worst P99.
	if !pts[0].Pareto || !pts[3].Pareto {
		t.Fatal("LC pareto extremes should survive")
	}
	if pts[2].Pareto {
		t.Fatal("dominated point survived (b has more agg and less latency)")
	}
}

func TestTradeoffIOMax(t *testing.T) {
	pts, err := RunTradeoff(TradeoffConfig{
		Knob: KnobIOMax, Kind: PriorityBatch, Steps: 3,
		Measure: 300 * sim.Millisecond, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Tightest BE cap gives the priority app the most bandwidth;
	// loosest gives the highest aggregate.
	if pts[0].PrioBW <= pts[len(pts)-1].PrioBW {
		t.Fatalf("io.max trade-off inverted: %v vs %v", pts[0].PrioBW, pts[len(pts)-1].PrioBW)
	}
	if pts[0].AggregateBW >= pts[len(pts)-1].AggregateBW {
		t.Fatalf("io.max utilization not traded: %v vs %v", pts[0].AggregateBW, pts[len(pts)-1].AggregateBW)
	}
}

func TestBurstIOMaxFast(t *testing.T) {
	r, err := RunBurst(BurstConfig{
		Knob: KnobIOMax, Kind: PriorityBatch,
		Lead: 500 * sim.Millisecond, Tail: 2 * sim.Second, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Achieved {
		t.Fatal("io.max burst never stabilized")
	}
	if r.Response > 500*sim.Millisecond {
		t.Fatalf("io.max response %v, want fast (O10)", r.Response)
	}
}

func TestIllustrateSchedule(t *testing.T) {
	series, err := RunIllustrate(IllustrateConfig{Knob: KnobNone, TimeScale: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	// App C (starts at 20, stops at 50 of 70 scaled) must be inactive
	// in the first and last windows.
	c := series[2]
	if c.App != "C" {
		t.Fatalf("series order: %v", c.App)
	}
	var active, total int
	for _, p := range c.Points {
		total++
		if p.Rate > 0 {
			active++
		}
	}
	if active == 0 || active >= total {
		t.Fatalf("C active %d of %d windows, want a strict subset", active, total)
	}
}

func TestNeutralizeKnob(t *testing.T) {
	cl, _ := NewFleet(Options{Knob: KnobIOMax})
	g, _ := cl.NewGroup("g")
	if err := NeutralizeKnob(KnobIOMax, g); err != nil {
		t.Fatal(err)
	}
	if m := g.Knobs().MaxFor(DevName(0)); m.RBps < 1e11 {
		t.Fatalf("io.max not neutralized: %+v", m)
	}
	if err := NeutralizeKnob(KnobIOLatency, g); err != nil {
		t.Fatal(err)
	}
	if lt := g.Knobs().LatencyFor(DevName(0)); lt != 5*sim.Second {
		t.Fatalf("io.latency not neutralized: %v", lt)
	}
	if err := NeutralizeKnob(KnobNone, g); err != nil {
		t.Fatal(err)
	}
}

func TestVerdictString(t *testing.T) {
	if Good.String() != "✓" || Partial.String() != "–" || Bad.String() != "✗" {
		t.Fatal("verdict glyphs")
	}
}

func TestDistinctOutcomes(t *testing.T) {
	pts := []TradeoffPoint{
		{AggregateBW: 1e9, PrioBW: 1e9},
		{AggregateBW: 1.01e9, PrioBW: 1.01e9}, // same cluster
		{AggregateBW: 2e9, PrioBW: 0.2e9},
	}
	if n := distinctOutcomes(pts); n != 2 {
		t.Fatalf("clusters = %d, want 2", n)
	}
}
