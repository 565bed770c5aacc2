package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"isolbench/internal/device"
	"isolbench/internal/fault"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
	"isolbench/internal/workload/gen"
)

// buildTwoTenant assembles a small two-group, two-app cluster for
// paranoid-mode tests.
func buildTwoTenant(t *testing.T, opts Options) *Fleet {
	t.Helper()
	cl, err := NewFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	for gi := 0; gi < 2; gi++ {
		g, err := cl.NewGroup(fmt.Sprintf("tenant%d", gi))
		if err != nil {
			t.Fatal(err)
		}
		spec := workload.BatchApp(fmt.Sprintf("t%d", gi), g)
		spec.Core = gi
		if _, err := cl.AddApp(spec, 0); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

// TestParanoidHealthyAllKnobs runs every knob under -paranoid: the
// conservation laws must hold on healthy runs, or the checker is wrong.
func TestParanoidHealthyAllKnobs(t *testing.T) {
	for _, k := range AllKnobs() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			cl := buildTwoTenant(t, Options{
				Knob: k, Seed: 1,
				Control: RunControl{Ctx: context.Background(), Paranoid: true},
			})
			if err := cl.RunPhase(50*sim.Millisecond, 200*sim.Millisecond); err != nil {
				t.Fatalf("paranoid check failed on a healthy %s run: %v", k, err)
			}
			// A second window must pass too (counters reset mid-run).
			if err := cl.RunPhase(0, 100*sim.Millisecond); err != nil {
				t.Fatalf("paranoid check failed on the second window: %v", err)
			}
		})
	}
}

// TestParanoidFaultedRuns verifies the invariants also hold when the
// error/retry/timeout recovery paths are exercised — the accounting
// identities are supposed to survive device misbehavior.
func TestParanoidFaultedRuns(t *testing.T) {
	for _, fp := range fault.BuiltinProfiles() {
		fp := fp
		t.Run(fp.Name, func(t *testing.T) {
			t.Parallel()
			cl := buildTwoTenant(t, Options{
				Knob: KnobIOCost, Seed: 3, Fault: fp,
				Control: RunControl{Ctx: context.Background(), Paranoid: true},
			})
			if err := cl.RunPhase(50*sim.Millisecond, 300*sim.Millisecond); err != nil {
				t.Fatalf("paranoid check failed under fault profile %s: %v", fp.Name, err)
			}
		})
	}
}

// TestParanoidCoversReplay: open-loop replays are inside the paranoid
// perimeter now that their exemption is gone — an app+replay mix must
// satisfy every conservation law across two windows, healthy and under
// a fault profile that forces the retry path.
func TestParanoidCoversReplay(t *testing.T) {
	for _, fp := range []fault.Profile{{}, fault.GCStormProfile()} {
		fp := fp
		name := fp.Name
		if !fp.Enabled() {
			name = "healthy"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cl, err := NewFleet(Options{
				Knob: KnobIOCost, Seed: 5, Fault: fp,
				Control: RunControl{Ctx: context.Background(), Paranoid: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			g, err := cl.NewGroup("tenant")
			if err != nil {
				t.Fatal(err)
			}
			spec := workload.BatchApp("t", g)
			spec.Core = 0
			if _, err := cl.AddApp(spec, 0); err != nil {
				t.Fatal(err)
			}
			gr, err := cl.NewGroup("replay")
			if err != nil {
				t.Fatal(err)
			}
			// Heavy-tailed sizes so the replay's MaxReqSize feeds the
			// cross-layer slack with something bigger than the app's 4 KiB.
			sh := gen.Shape{
				Seed: 21, Duration: 600 * sim.Millisecond, BaseIOPS: 8000,
				SizeAlpha: 1.4, SizeCap: 256 << 10, ReadFrac: 0.7, Users: 16,
			}
			rp, err := cl.AddReplay(sh.Source(), workload.ReplayConfig{Group: gr, Core: 1}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.RunPhase(50*sim.Millisecond, 250*sim.Millisecond); err != nil {
				t.Fatalf("paranoid check failed with a replay in the mix: %v", err)
			}
			// A second window must pass too (replay window counters reset).
			if err := cl.RunPhase(0, 150*sim.Millisecond); err != nil {
				t.Fatalf("paranoid check failed on the second window: %v", err)
			}
			if vs := rp.CheckConservation(); len(vs) > 0 {
				t.Fatalf("replay conservation: %v", vs)
			}
		})
	}
}

// TestParanoidCatchesSeededViolation plants a phantom io.stat
// completion — bytes the device never moved — and expects the checker
// to fail with a diagnostic naming the device.
func TestParanoidCatchesSeededViolation(t *testing.T) {
	cl := buildTwoTenant(t, Options{
		Knob: KnobNone, Seed: 1,
		Control: RunControl{Ctx: context.Background(), Paranoid: true},
	})
	if err := cl.RunPhase(0, 100*sim.Millisecond); err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	cl.Obs.Completed(DevName(0), &device.Request{
		Op: device.Read, Size: 1 << 30,
		Cgroup: cl.Groups[0].ID(),
	})
	err := cl.CheckInvariants()
	if err == nil {
		t.Fatal("checker missed a 1 GiB phantom io.stat completion")
	}
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %T, want *InvariantError", err)
	}
	if !strings.Contains(err.Error(), DevName(0)) {
		t.Fatalf("diagnostic does not name the device: %v", err)
	}
}

// TestControlNeutral pins the tentpole's no-regression guarantee: a
// fully armed control (context, generous watchdog budgets, paranoid
// checks) leaves the measured results identical to an uncontrolled
// run — the watchdog observes, it never perturbs.
func TestControlNeutral(t *testing.T) {
	run := func(ctl RunControl) Result {
		cl := buildTwoTenant(t, Options{Knob: KnobIOCost, Seed: 7, Control: ctl})
		if err := cl.RunPhase(20*sim.Millisecond, 200*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		r := cl.Result()
		r.Obs = nil // the armed run carries an observer; counters must still match
		return r
	}
	base := run(RunControl{})
	armed := run(RunControl{
		Ctx:      context.Background(),
		Paranoid: true,
	})
	if fmt.Sprintf("%+v", base) != fmt.Sprintf("%+v", armed) {
		t.Fatalf("armed control perturbed the run:\nbase  %+v\narmed %+v", base, armed)
	}
}

// TestWatchdogAbortSurfaces verifies a tripped budget comes back from
// RunPhase as a contained sim.ErrWatchdog, not a panic or a hang.
func TestWatchdogAbortSurfaces(t *testing.T) {
	cl := buildTwoTenant(t, Options{
		Knob: KnobNone, Seed: 1,
		Control: RunControl{Ctx: context.Background(), MaxEvents: 500},
	})
	err := cl.RunPhase(0, sim.Second)
	if !errors.Is(err, sim.ErrWatchdog) {
		t.Fatalf("err = %v, want a watchdog abort", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatal("watchdog abort must not read as cancellation")
	}
}

// TestCancelSurfaces verifies a canceled run context stops the engine
// and surfaces as context.Canceled (fail-fast), not as a watchdog
// abort (contained).
func TestCancelSurfaces(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cl := buildTwoTenant(t, Options{
		Knob: KnobNone, Seed: 1,
		Control: RunControl{Ctx: ctx},
	})
	err := cl.RunPhase(0, sim.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, sim.ErrWatchdog) {
		t.Fatal("cancellation must not read as a watchdog abort")
	}
}
