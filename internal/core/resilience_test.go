package core

import (
	"reflect"
	"testing"

	"isolbench/internal/blk"
	"isolbench/internal/fault"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// runOnceFault is runOnce with explicit fault/retry options, returning
// the cluster too so tests can inspect the event count.
func runOnceFault(t *testing.T, knob Knob, seed uint64, fp fault.Profile, rp blk.RetryPolicy) (*Fleet, Result) {
	t.Helper()
	cl, err := NewFleet(Options{Knob: knob, Seed: seed, Fault: fp, Retry: rp})
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
	return cl, cl.Result()
}

// TestFaultDisabledGolden pins the determinism contract the whole PR
// rests on: a zero fault.Profile and zero RetryPolicy must leave the
// simulation byte-identical to a cluster built before this machinery
// existed — same results AND the same number of engine events, so the
// fault path provably adds nothing when disabled.
func TestFaultDisabledGolden(t *testing.T) {
	for _, knob := range AllKnobs() {
		plain := runOnce(t, knob, 42) // Options without fault fields at all
		cl, off := runOnceFault(t, knob, 42, fault.Profile{}, blk.RetryPolicy{})
		if !reflect.DeepEqual(plain, off) {
			t.Fatalf("%v: disabled faults changed the result:\nplain: %+v\n  off: %+v", knob, plain, off)
		}
		// Re-run the plain scenario to compare event counts.
		cl2, err := NewFleet(Options{Knob: knob, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for gi := 0; gi < 2; gi++ {
			g, err := cl2.NewGroup([]string{"a", "b"}[gi])
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 2; j++ {
				spec := workload.BatchApp("x", g)
				spec.Core = gi*2 + j
				if _, err := cl2.AddApp(spec, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		cl2.RunPhase(100*sim.Millisecond, 300*sim.Millisecond)
		if cl.Eng.Processed() != cl2.Eng.Processed() {
			t.Fatalf("%v: disabled faults changed the event stream: %d vs %d events",
				knob, cl.Eng.Processed(), cl2.Eng.Processed())
		}
	}
}

// TestFaultEnabledDiverges is the counterpart: the injector must
// actually bite. An enabled profile changes the result, and the same
// fault seed reproduces it exactly.
func TestFaultEnabledDiverges(t *testing.T) {
	fp := fault.BrownoutProfile()
	_, healthy := runOnceFault(t, KnobNone, 42, fault.Profile{}, blk.RetryPolicy{})
	_, faulted := runOnceFault(t, KnobNone, 42, fp, blk.RetryPolicy{})
	if healthy.AggregateBW <= faulted.AggregateBW {
		t.Fatalf("brownouts did not hurt bandwidth: healthy %.3g vs faulted %.3g",
			healthy.AggregateBW, faulted.AggregateBW)
	}
	_, again := runOnceFault(t, KnobNone, 42, fp, blk.RetryPolicy{})
	if !reflect.DeepEqual(faulted, again) {
		t.Fatalf("same fault seed diverged:\n a: %+v\n b: %+v", faulted, again)
	}
}

// TestRetrySurfacesInResult: transient errors flow through blk recovery
// into the cluster-level counters the resilience report prints.
func TestRetrySurfacesInResult(t *testing.T) {
	fp := fault.FlakyProfile()
	_, res := runOnceFault(t, KnobNone, 42, fp, blk.DefaultRetryPolicy())
	if res.Retries == 0 {
		t.Fatal("flaky profile produced no retries")
	}
	if res.Timeouts == 0 {
		t.Fatal("flaky profile produced no timeouts (DropProb should strand requests)")
	}
}

// quickResilience keeps the grid test fast: short windows, tiny grid.
func quickResilience() ResilienceConfig {
	return ResilienceConfig{Warmup: 100 * sim.Millisecond, Measure: 250 * sim.Millisecond, Seed: 7}
}

// TestResilienceParallelDeterminism: the resilience grid must produce
// identical results at any pool width — the acceptance bar for the
// whole experiment (-workers 1 vs -workers 8 byte-identical).
func TestResilienceParallelDeterminism(t *testing.T) {
	knobs := []Knob{KnobIOMax, KnobBFQ}
	profiles := []fault.Profile{fault.GCStormProfile(), fault.FlakyProfile()}
	seq, err := RunResilienceGrid(knobs, profiles, quickResilience(), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunResilienceGrid(knobs, profiles, quickResilience(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("workers=1 vs workers=8 diverged:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestResilienceRejectsHealthyProfile: a no-op profile is a user error,
// not a silently-degenerate cell.
func TestResilienceRejectsHealthyProfile(t *testing.T) {
	if _, err := RunResilience(ResilienceConfig{Knob: KnobNone, Fault: fault.Profile{}}); err == nil {
		t.Fatal("RunResilience accepted a profile that injects nothing")
	}
}

// TestResilienceCellShape: one full cell under a flaky device reports
// retries and a sane inflation; windowless profiles report no recovery
// metric rather than a fake one.
func TestResilienceCellShape(t *testing.T) {
	cfg := quickResilience()
	cfg.Knob = KnobIOCost
	cfg.Fault = fault.FlakyProfile()
	r, err := RunResilience(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Retries == 0 {
		t.Fatal("flaky cell reported no retries")
	}
	if r.HasWindows {
		t.Fatal("flaky profile has no fault windows; recovery must be n/a")
	}
	if r.BaseP99 <= 0 || r.FaultP99 <= 0 || r.P99Inflation <= 0 {
		t.Fatalf("degenerate tail metrics: %+v", r)
	}
	if r.BaseJain <= 0 || r.BaseJain > 1 || r.FaultJain <= 0 || r.FaultJain > 1 {
		t.Fatalf("Jain index out of range: %+v", r)
	}
}
