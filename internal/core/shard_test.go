package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"isolbench/internal/blk"
	"isolbench/internal/fault"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// shardFleetRun builds a 4-device fleet with 8 single-app tenants
// (tenant i on core i, shard-disjoint because devices divide cores),
// runs one window, and returns the Result plus the fleet.
func shardFleetRun(t *testing.T, knob Knob, shards int) (Result, *Fleet) {
	t.Helper()
	return shardFleetRunWith(t, Options{Knob: knob}, shards, nil)
}

// shardFleetRunWith is shardFleetRun over caller-supplied options
// (Knob, Fault, Retry, ...); setup, when non-nil, configures each
// tenant after it is placed.
func shardFleetRunWith(t *testing.T, opts Options, shards int, setup func(*Tenant)) (Result, *Fleet) {
	t.Helper()
	opts.Devices, opts.Cores, opts.Seed = 4, 8, 5
	opts.Control = RunControl{Shards: shards}
	cl, err := NewFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		spec := churnSpec("")
		spec.Apps[0].Core = i
		spec.Apps[0].QD = 4
		tn, err := cl.AddTenant(spec)
		if err != nil {
			t.Fatal(err)
		}
		if setup != nil {
			setup(tn)
		}
	}
	if err := cl.RunPhase(10*sim.Millisecond, 50*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	return cl.Result(), cl
}

// checkShardIdentity requires the sharded fleet's Result to equal the
// single-engine run's, and every event the single engine ran to be on
// exactly one of the sharded fleet's engines.
func checkShardIdentity(t *testing.T, single, sharded Result, scl, pcl *Fleet) {
	t.Helper()
	if got := scl.Shards(); got != 0 {
		t.Fatalf("unsharded fleet reports %d shards", got)
	}
	if got := pcl.Shards(); got != 4 {
		t.Fatalf("sharded fleet reports %d shards, want 4", got)
	}
	if !reflect.DeepEqual(single, sharded) {
		t.Fatalf("sharded result diverges:\nsingle  %+v\nsharded %+v", single, sharded)
	}
	shardSum := pcl.Eng.Processed()
	for i := 0; i < pcl.Shards(); i++ {
		shardSum += pcl.shardEngs[i].Processed()
	}
	if single := scl.Eng.Processed(); shardSum != single {
		t.Fatalf("processed events: sharded total %d != single-engine %d", shardSum, single)
	}
}

// TestShardedResultIdentity is the tentpole contract: a fleet advanced
// on per-device shard engines must produce a Result deeply equal to
// the single-engine run, for every knob.
func TestShardedResultIdentity(t *testing.T) {
	for _, k := range AllKnobs() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			single, scl := shardFleetRun(t, k, 0)
			sharded, pcl := shardFleetRun(t, k, 4)
			checkShardIdentity(t, single, sharded, scl, pcl)
		})
	}
}

// TestShardedTimerIdentity extends the identity to fleets whose
// in-place timers really move: io.max release timers on tenants held
// well under the device's bandwidth, and per-request blk timeout
// watchdogs on devices that fail and lose commands. Both must fire
// (throttle holds, timeouts) for the check to mean anything.
func TestShardedTimerIdentity(t *testing.T) {
	t.Run("io.max", func(t *testing.T) {
		throttle := func(tn *Tenant) {
			if err := tn.Group.SetFile("io.max", DevName(tn.Device)+" riops=2000"); err != nil {
				t.Fatal(err)
			}
		}
		opts := Options{Knob: KnobIOMax}
		single, scl := shardFleetRunWith(t, opts, 0, throttle)
		sharded, pcl := shardFleetRunWith(t, opts, 4, throttle)
		checkShardIdentity(t, single, sharded, scl, pcl)
		// 8 tenants capped at 2000 IOPS for 50 ms complete ~800 I/Os.
		var ios uint64
		for _, a := range scl.Apps {
			ios += a.Stats().IOs
		}
		if ios == 0 || ios > 1200 {
			t.Fatalf("throttled fleet completed %d I/Os; the io.max cap did not bind", ios)
		}
	})
	t.Run("retry", func(t *testing.T) {
		opts := Options{
			Knob:  KnobNone,
			Fault: fault.Profile{Name: "lossy", ErrorProb: 0.01, DropProb: 0.005},
			Retry: blk.RetryPolicy{MaxRetries: 2, Backoff: 50 * sim.Microsecond,
				BackoffMax: sim.Millisecond, Timeout: 2 * sim.Millisecond},
		}
		single, scl := shardFleetRunWith(t, opts, 0, nil)
		sharded, pcl := shardFleetRunWith(t, opts, 4, nil)
		checkShardIdentity(t, single, sharded, scl, pcl)
		var timeouts, retries uint64
		for _, q := range scl.Queues {
			timeouts += q.Timeouts()
			retries += q.Retries()
		}
		if timeouts == 0 || retries == 0 {
			t.Fatalf("lossy fleet saw %d timeouts, %d retries; the watchdogs never fired", timeouts, retries)
		}
	})
}

// TestShardedSingleDevice pins that Shards > 1 on a one-device fleet
// degrades to one shard engine and still matches the classic runtime —
// the barrier machinery must be an identity when the global engine has
// no events of its own.
func TestShardedSingleDevice(t *testing.T) {
	run := func(shards int) Result {
		cl, err := NewFleet(Options{
			Knob: KnobBFQ, Devices: 1, Cores: 2, Seed: 9,
			Control: RunControl{Shards: shards},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			spec := churnSpec("")
			spec.Apps[0].Core = i
			if _, err := cl.AddTenant(spec); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.RunPhase(5*sim.Millisecond, 25*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if shards > 1 && cl.Shards() != 1 {
			t.Fatalf("one-device fleet got %d shards, want min(shards, devices) = 1", cl.Shards())
		}
		return cl.Result()
	}
	if a, b := run(0), run(8); !reflect.DeepEqual(a, b) {
		t.Fatalf("single-device sharded run diverges:\n%+v\n%+v", a, b)
	}
}

// TestShardedChurnIdentity runs the full fleetscale churn sweep —
// mid-run tenant removal and arrival, drained teardown, placement
// rebalancing — sharded and unsharded, and requires identical points.
// Churn is the hard case: teardown spans shard-local state (scheduler/
// controller detach) and fleet-global state (rosters, cgroup tree),
// and arrivals triggered at barriers must observe placement state as
// the single engine would have left it.
func TestShardedChurnIdentity(t *testing.T) {
	cfg := fleetScaleTestConfig()
	cfg.Workers = 1
	seq, err := RunFleetScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Control.Shards = 4
	shard, err := RunFleetScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(seq), stripWall(shard)) {
		t.Fatalf("sharded churn diverges:\nsingle  %+v\nsharded %+v", stripWall(seq), stripWall(shard))
	}
}

// TestShardedObserveFallsBack pins the clamp: observability is
// single-engine state, so an observed fleet must silently fall back
// and say why.
func TestShardedObserveFallsBack(t *testing.T) {
	cl, err := NewFleet(Options{
		Knob: KnobIOCost, Devices: 2, Observe: true,
		Control: RunControl{Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Shards() != 0 {
		t.Fatalf("observed fleet sharded (%d engines)", cl.Shards())
	}
	if cl.ShardNote() == "" {
		t.Fatal("clamped fleet should explain itself via ShardNote")
	}
	// Paranoid implies Observe through withDefaults; same clamp.
	cl, err = NewFleet(Options{
		Knob: KnobIOCost, Devices: 2,
		Control: RunControl{Shards: 2, Paranoid: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Shards() != 0 {
		t.Fatal("paranoid fleet must fall back to the single engine")
	}
}

// TestShardedCoreConflict pins the placement contract: one core cannot
// serve apps whose devices live on different shards.
func TestShardedCoreConflict(t *testing.T) {
	cl, err := NewFleet(Options{
		Knob: KnobNone, Devices: 2, Cores: 4, Seed: 1,
		Control: RunControl{Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cl.NewGroup("t")
	if err != nil {
		t.Fatal(err)
	}
	a := workload.LCApp("a", g)
	a.Core = 1
	if _, err := cl.AddApp(a, 0); err != nil {
		t.Fatal(err)
	}
	b := workload.LCApp("b", g)
	b.Core = 1
	_, err = cl.AddApp(b, 1)
	if err == nil {
		t.Fatal("core 1 serving devices 0 and 1 across shards should be rejected")
	}
	if !strings.Contains(err.Error(), "bound to shard") {
		t.Fatalf("conflict error should name the shards: %v", err)
	}
	// Same core on the same shard stays fine.
	c2 := workload.LCApp("c", g)
	c2.Core = 1
	if _, err := cl.AddApp(c2, 0); err != nil {
		t.Fatalf("same-shard core reuse rejected: %v", err)
	}
}

// TestShardedCancellation cancels the run context before the window:
// every shard engine polls the watchdog, so the sharded run must stop
// and surface context.Canceled just like the single-engine runtime.
func TestShardedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cl, err := NewFleet(Options{
		Knob: KnobNone, Devices: 2, Cores: 4, Seed: 1,
		Control: RunControl{Ctx: ctx, Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		spec := churnSpec("")
		spec.Apps[0].Core = i
		spec.Apps[0].QD = 32 // enough traffic to reach a watchdog poll
		if _, err := cl.AddTenant(spec); err != nil {
			t.Fatal(err)
		}
	}
	if cl.Shards() != 2 {
		t.Fatalf("shards = %d, want 2 (Ctx alone must not clamp sharding)", cl.Shards())
	}
	cancel()
	// Cancellation lands at the next per-shard watchdog poll (every
	// 4096 events), so the window must carry well past one poll.
	err = cl.RunPhase(10*sim.Millisecond, sim.Duration(sim.Second))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sharded run returned %v, want context.Canceled", err)
	}
}
