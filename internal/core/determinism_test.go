package core

import (
	"testing"

	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// runOnce builds a small two-tenant scenario and returns its result.
func runOnce(t *testing.T, knob Knob, seed uint64) Result {
	t.Helper()
	cl, err := NewFleet(Options{Knob: knob, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for gi := 0; gi < 2; gi++ {
		g, err := cl.NewGroup([]string{"a", "b"}[gi])
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			spec := workload.BatchApp("x", g)
			spec.Core = gi*2 + j
			if _, err := cl.AddApp(spec, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	cl.RunPhase(100*sim.Millisecond, 300*sim.Millisecond)
	return cl.Result()
}

// TestDeterminism: identical seeds must give bit-identical results —
// the property that makes every number in EXPERIMENTS.md reproducible.
func TestDeterminism(t *testing.T) {
	for _, knob := range AllKnobs() {
		a := runOnce(t, knob, 42)
		b := runOnce(t, knob, 42)
		if a.IOs != b.IOs || a.AggregateBW != b.AggregateBW || a.CPUUtil != b.CPUUtil {
			t.Fatalf("%v: same seed diverged: %+v vs %+v", knob, a, b)
		}
		for i := range a.Groups {
			if a.Groups[i].Bytes != b.Groups[i].Bytes || a.Groups[i].P99 != b.Groups[i].P99 {
				t.Fatalf("%v: group %d diverged", knob, i)
			}
		}
	}
}

// TestSeedSensitivity: different seeds must actually change the jitter
// stream (a frozen RNG would silently undermine the repeat/stddev
// methodology).
func TestSeedSensitivity(t *testing.T) {
	a := runOnce(t, KnobNone, 1)
	b := runOnce(t, KnobNone, 2)
	if a.IOs == b.IOs {
		t.Fatal("different seeds produced identical IO counts — RNG not wired through")
	}
	// But the steady-state bandwidth should agree within a percent:
	// seeds perturb jitter, not physics.
	ra, rb := a.AggregateBW, b.AggregateBW
	if diff := (ra - rb) / ra; diff > 0.01 || diff < -0.01 {
		t.Fatalf("seeds changed steady-state bandwidth by %.2f%%", diff*100)
	}
}

// TestNoWallClockLeak: results must not depend on how the host
// schedules the simulation (two interleaved fleets advance
// independently, and as far as one run straight to the end).
func TestNoWallClockLeak(t *testing.T) {
	mk := func() (*Fleet, error) {
		cl, err := NewFleet(Options{Knob: KnobIOCost, Seed: 9})
		if err != nil {
			return nil, err
		}
		g, err := cl.NewGroup("g")
		if err != nil {
			return nil, err
		}
		if _, err := cl.AddApp(workload.BatchApp("x", g), 0); err != nil {
			return nil, err
		}
		return cl, nil
	}
	end := sim.Time(250 * sim.Millisecond)
	solo, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if err := solo.RunTo(end); err != nil {
		t.Fatal(err)
	}

	// Interleave two identical fleets step by step.
	x, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	y, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	for tick := sim.Time(0); tick <= end; tick += sim.Time(sim.Millisecond) {
		if err := x.RunTo(tick); err != nil {
			t.Fatal(err)
		}
		if err := y.RunTo(tick); err != nil {
			t.Fatal(err)
		}
	}
	if x.Eng.Processed() != y.Eng.Processed() || x.Eng.Processed() != solo.Eng.Processed() {
		t.Fatalf("interleaved identical fleets diverged: %d and %d events, solo run %d",
			x.Eng.Processed(), y.Eng.Processed(), solo.Eng.Processed())
	}
}

// runOnceObs is runOnce with the observability layer switched on or
// off.
func runOnceObs(t *testing.T, knob Knob, seed uint64, observe bool) Result {
	t.Helper()
	cl, err := NewFleet(Options{Knob: knob, Seed: seed, Observe: observe})
	if err != nil {
		t.Fatal(err)
	}
	for gi := 0; gi < 2; gi++ {
		g, err := cl.NewGroup([]string{"a", "b"}[gi])
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			spec := workload.BatchApp("x", g)
			spec.Core = gi*2 + j
			if _, err := cl.AddApp(spec, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	cl.RunPhase(100*sim.Millisecond, 300*sim.Millisecond)
	res := cl.Result()
	res.Obs = cl.Obs
	return res
}

// TestObsDeterminism: enabling the observability layer must not perturb
// the simulation — same seed, obs on vs off, bit-identical results. The
// observer only reads state and never schedules events, draws random
// numbers, or feeds decisions back; this test is what keeps it that
// way.
func TestObsDeterminism(t *testing.T) {
	for _, knob := range AllKnobs() {
		off := runOnceObs(t, knob, 42, false)
		on := runOnceObs(t, knob, 42, true)
		if off.IOs != on.IOs || off.AggregateBW != on.AggregateBW || off.CPUUtil != on.CPUUtil ||
			off.CtxPerIO != on.CtxPerIO || off.CyclesPerIO != on.CyclesPerIO {
			t.Fatalf("%v: obs perturbed the run:\n off: %+v\n on:  %+v", knob, off, on)
		}
		for i := range off.Groups {
			a, b := off.Groups[i], on.Groups[i]
			if a.Bytes != b.Bytes || a.IOs != b.IOs || a.P50 != b.P50 || a.P99 != b.P99 {
				t.Fatalf("%v: group %d diverged with obs on", knob, i)
			}
		}
		// And the observer actually collected: spans whose stage sums
		// equal end-to-end latency, and io.stat totals matching the
		// workload's accounting.
		if on.Obs == nil {
			t.Fatalf("%v: observer missing", knob)
		}
		spans := on.Obs.Spans()
		if len(spans) == 0 {
			t.Fatalf("%v: no spans collected", knob)
		}
		for _, sp := range spans {
			if sp.Total() <= 0 {
				t.Fatalf("%v: span %d has no latency", knob, sp.ID)
			}
		}
		if len(on.Obs.Cgroups()) == 0 {
			t.Fatalf("%v: no cgroups observed", knob)
		}
		for _, cg := range on.Obs.Cgroups() {
			if body, ok := on.Obs.StatFile(cg); !ok || body == "" {
				t.Fatalf("%v: empty io.stat for cgroup %d", knob, cg)
			}
			if on.Obs.StageHistogram(cg, 0) == nil {
				t.Fatalf("%v: missing stage histogram", knob)
			}
		}
	}
}

// BenchmarkObsClusterOverhead measures a whole simulated run with the
// observability layer off vs on — the end-to-end cost, not just the
// hook sites.
func BenchmarkObsClusterOverhead(b *testing.B) {
	run := func(b *testing.B, observe bool) {
		for i := 0; i < b.N; i++ {
			cl, err := NewFleet(Options{Knob: KnobIOCost, Seed: 42, Observe: observe})
			if err != nil {
				b.Fatal(err)
			}
			g, err := cl.NewGroup("g")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cl.AddApp(workload.BatchApp("x", g), 0); err != nil {
				b.Fatal(err)
			}
			cl.RunPhase(20*sim.Millisecond, 100*sim.Millisecond)
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })
}
