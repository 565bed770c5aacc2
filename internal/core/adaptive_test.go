package core

import (
	"strings"
	"testing"

	"isolbench/internal/fault"
	"isolbench/internal/obs"
	"isolbench/internal/shaper"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// TestAdaptiveRecovery pins the adaptive shaper's headline property:
// after a bursty device fault clears, aggregate throughput is back at
// >= 85% of the healthy baseline within two 100 ms windows of the last
// fault window (the measured figure includes the criterion's own two
// confirmation windows, so <= 300 ms), where io.cost — whose vtime
// debt keeps punishing tenants long after the device recovered — never
// gets there at all inside the same tail.
func TestAdaptiveRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("non-quick windows")
	}
	// Non-quick durations on purpose: the fault horizon sits at 75% of
	// the measure window, so quick-mode tails are shorter than the two
	// 100 ms windows the recovery criterion needs and every knob reads
	// "never (window end)" by construction.
	for _, p := range []fault.Profile{fault.GCStormProfile(), fault.BrownoutProfile()} {
		r, err := RunResilience(ResilienceConfig{Knob: KnobAdaptive, Fault: p, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !r.HasWindows {
			t.Fatalf("%s: no fault windows, recovery undefined", p.Name)
		}
		if !r.Recovered || r.Recovery > 300*sim.Millisecond {
			t.Fatalf("%s: recovered=%v recovery=%v, want recovery within 2 windows of fault clear (<= 300ms measured)",
				p.Name, r.Recovered, r.Recovery)
		}
		// The self-healing must not cost D2: weighted proportionality
		// holds through the fault.
		if r.FaultJain < 0.85 {
			t.Fatalf("%s: faulted weighted Jain %.3f < 0.85 — recovery traded away fairness", p.Name, r.FaultJain)
		}
	}

	// The contrast that motivates the sixth knob: io.cost's capacity
	// estimate death-spirals under the same gcstorm schedule and never
	// recovers inside the tail.
	r, err := RunResilience(ResilienceConfig{Knob: KnobIOCost, Fault: fault.GCStormProfile(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Recovered {
		t.Fatalf("io.cost recovered (%v) under gcstorm — the adaptive row's contrast no longer holds; update EXPERIMENTS.md", r.Recovery)
	}
}

// TestAdaptiveShaperIncidents asserts every shaper mode transition in a
// faulted run surfaces as an obs incident, and that the shaper's time
// series are exported.
func TestAdaptiveShaperIncidents(t *testing.T) {
	cfg := ResilienceConfig{Knob: KnobAdaptive, Fault: fault.GCStormProfile(), Seed: 1}.withDefaults()
	cl, _, err := runResilienceCluster(cfg, cfg.Fault)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Obs == nil {
		t.Fatal("adaptive cluster has no observer (withDefaults must force Observe)")
	}
	var freezes, resumes int
	for _, in := range cl.Obs.Incidents() {
		if in.Kind != obs.IncidentShaper {
			continue
		}
		if !strings.Contains(in.Detail, "->") {
			t.Fatalf("shaper incident without a transition: %q", in.Detail)
		}
		if strings.Contains(in.Detail, "-> frozen") {
			freezes++
		}
		if strings.Contains(in.Detail, "-> adaptive") {
			resumes++
		}
	}
	if freezes == 0 {
		t.Fatal("gcstorm run recorded no freeze incident")
	}
	if resumes == 0 {
		t.Fatal("fault windows cleared but no resume incident was recorded")
	}
	for _, name := range []string{"shaper.mode.", "shaper.capest.", "shaper.headroom."} {
		s := cl.Obs.Series(name+DevName(0), 0)
		if s == nil || s.Len() == 0 {
			t.Fatalf("series %s%s missing or empty", name, DevName(0))
		}
	}
	if s := cl.Obs.Series("shaper.target."+DevName(0), cl.Groups[0].ID()); s == nil || s.Len() == 0 {
		t.Fatal("per-group shaper target series missing")
	}
	if len(cl.Shapers) != 1 || cl.Column(0).Shaper == nil {
		t.Fatal("adaptive fleet did not expose its shaper handles")
	}
}

// TestAdaptiveParanoidFaultProfiles runs the adaptive knob under every
// builtin fault profile with the paranoid conservation checks armed:
// the shaper's mid-run io.max rewrites must never break byte
// accounting.
func TestAdaptiveParanoidFaultProfiles(t *testing.T) {
	for _, p := range fault.BuiltinProfiles() {
		cfg := ResilienceConfig{
			Knob: KnobAdaptive, Fault: p, Seed: 1,
			Measure: 500 * sim.Millisecond,
			Control: RunControl{Paranoid: true},
		}
		if _, err := RunResilience(cfg); err != nil {
			t.Fatalf("%s: paranoid adaptive run failed: %v", p.Name, err)
		}
	}
}

// TestAdaptiveChurnForgets: removing a tenant mid-run drops it from
// every shaper (no stale caps, no leaked controller memory).
func TestAdaptiveChurnForgets(t *testing.T) {
	cl, err := NewFleet(Options{Knob: KnobAdaptive, Seed: 1, Control: RunControl{Paranoid: true}})
	if err != nil {
		t.Fatal(err)
	}
	var tens []*Tenant
	core := 0
	for _, name := range []string{"stay", "leave"} {
		var apps []workload.Spec
		for j := 0; j < 2; j++ {
			s := workload.BatchApp("", nil)
			s.Core = core
			core++
			apps = append(apps, s)
		}
		tn, err := cl.AddTenant(TenantSpec{Name: name, Apps: apps})
		if err != nil {
			t.Fatal(err)
		}
		tens = append(tens, tn)
	}
	if err := cl.RunPhase(100*sim.Millisecond, 300*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	leavingID := tens[1].Group.ID()
	st := cl.Shapers[0].State()
	if _, ok := st.Targets[leavingID]; !ok {
		t.Fatal("shaper never picked up the leaving tenant")
	}
	var removeErr error
	cl.RemoveTenant(tens[1], func(err error) { removeErr = err })
	if err := cl.RunPhase(0, 300*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if removeErr != nil {
		t.Fatalf("teardown: %v", removeErr)
	}
	st = cl.Shapers[0].State()
	if _, ok := st.Targets[leavingID]; ok {
		t.Fatal("shaper kept the removed tenant's cap")
	}
	if _, ok := st.Targets[tens[0].Group.ID()]; !ok {
		t.Fatal("shaper dropped the surviving tenant")
	}
	// The shaper's state handle is a copy: mutating it must not reach
	// the controller.
	st.Targets[12345] = 1
	if _, ok := cl.Shapers[0].State().Targets[12345]; ok {
		t.Fatal("State() leaked internal maps")
	}
}

// TestAdaptiveShaperConfigOverride: Options.Shaper flows through to the
// column shapers (the overhead experiments rely on this to neutralize
// the caps).
func TestAdaptiveShaperConfigOverride(t *testing.T) {
	cl, err := NewFleet(Options{
		Knob:   KnobAdaptive,
		Seed:   1,
		Shaper: shaper.Config{FloorBps: 1e12, CeilingBps: 2e12},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cl.NewGroup("t0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AddApp(workload.BatchApp("a0", g), 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.RunPhase(100*sim.Millisecond, 400*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := cl.Shapers[0].State()
	for id, bps := range st.Targets {
		if bps != 0 && bps < 1e12 {
			t.Fatalf("neutralized shaper wrote a binding cap: group %d = %.0f", id, bps)
		}
	}
}
