package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"isolbench/internal/blk"
	"isolbench/internal/fault"
	"isolbench/internal/obs"
	"isolbench/internal/obs/attr"
	"isolbench/internal/shaper"
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
	if got := scl.Shards(); got != 1 {
		t.Fatalf("unsharded fleet reports %d shards, want 1", got)
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

// observedRun is everything TestShardedObserveIdentity compares
// between the single-engine and the sharded run of one cell.
type observedRun struct {
	Result       Result
	Files        []string // io.stat and io.pressure of every group
	Spans        []obs.Span
	SpansDropped uint64
	Blame        []attr.Cell
	Incidents    []obs.Incident
	Shapers      []shaper.State
}

// runObserved runs a 2-device fleet with observe, attr, SLO and
// paranoid on: per device, a protected QD1 reader (io.weight 400) and
// a QD32 neighbour (io.weight 100) on their own cores, with a
// compressed gcstorm when fp is enabled so storms land in the window.
func runObserved(t *testing.T, knob Knob, fp fault.Profile, shards int) (observedRun, *Fleet) {
	t.Helper()
	cl, err := NewFleet(Options{
		Knob: knob, Devices: 2, Cores: 4, Seed: 3, Fault: fp, Attr: true,
		SLO:     obs.SLOConfig{P99: 150 * sim.Microsecond, FastWindow: 10 * sim.Millisecond, SlowWindow: 40 * sim.Millisecond},
		Control: RunControl{Paranoid: true, Shards: shards},
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 2; d++ {
		for j, weight := range []string{"400", "100"} {
			g, err := cl.NewGroup(fmt.Sprintf("g%d-%d", d, j))
			if err != nil {
				t.Fatal(err)
			}
			if err := g.SetFile("io.weight", weight); err != nil {
				t.Fatal(err)
			}
			spec := workload.LCApp(g.Name(), g)
			if j == 1 {
				spec.QD = 32
			}
			spec.Core = d + 2*j
			if _, err := cl.AddApp(spec, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cl.RunPhase(20*sim.Millisecond, 130*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	run := observedRun{
		Result:       cl.Result(),
		Spans:        cl.Obs.Spans(),
		SpansDropped: cl.Obs.SpansDropped(),
		Blame:        cl.Attr.Cells(),
		Incidents:    cl.Obs.Incidents(),
	}
	for _, g := range cl.Groups {
		for _, f := range []string{"io.stat", "io.pressure"} {
			body, err := g.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			run.Files = append(run.Files, g.Name()+"/"+f+"\n"+body)
		}
	}
	for _, sh := range cl.Shapers {
		run.Shapers = append(run.Shapers, sh.State())
	}
	return run, cl
}

// TestShardedObserveIdentity is the shard-local observation contract:
// an observed, attributed, SLO-monitored, paranoid fleet runs on the
// sharded runtime, and everything read through the merged view equals
// the single-engine run. The paranoid suite runs at every window end
// on the sharded path too.
func TestShardedObserveIdentity(t *testing.T) {
	storm := fault.GCStormProfile()
	storm.StormEvery, storm.StormFor = 60*sim.Millisecond, 25*sim.Millisecond
	storm.BrownoutEvery, storm.BrownoutFor = 90*sim.Millisecond, 20*sim.Millisecond
	for _, k := range []Knob{KnobIOCost, KnobAdaptive} {
		for _, fp := range []fault.Profile{{}, storm} {
			name := k.String() + "/healthy"
			if fp.Enabled() {
				name = k.String() + "/" + fp.Name
			}
			k, fp := k, fp
			t.Run(name, func(t *testing.T) {
				single, scl := runObserved(t, k, fp, 0)
				sharded, pcl := runObserved(t, k, fp, 2)
				if scl.Shards() != 1 || pcl.Shards() != 2 {
					t.Fatalf("shards = %d and %d, want 1 and 2", scl.Shards(), pcl.Shards())
				}
				if pcl.invariantChecks == 0 {
					t.Fatal("the paranoid suite never ran on the sharded fleet")
				}
				if len(single.Spans) == 0 || len(single.Blame) == 0 {
					t.Fatalf("nothing observed: %d spans, %d blame cells", len(single.Spans), len(single.Blame))
				}
				if k == KnobAdaptive && len(single.Shapers) != 2 {
					t.Fatalf("%d shapers, want 2", len(single.Shapers))
				}
				v1, v2 := reflect.ValueOf(single), reflect.ValueOf(sharded)
				for i := 0; i < v1.NumField(); i++ {
					if !reflect.DeepEqual(v1.Field(i).Interface(), v2.Field(i).Interface()) {
						t.Errorf("%s diverges:\nsingle  %+v\nsharded %+v", v1.Type().Field(i).Name,
							v1.Field(i).Interface(), v2.Field(i).Interface())
					}
				}
			})
		}
	}
}

// TestShardedCgroupConflict pins the observed placement contract: in
// an observed sharded fleet a cgroup's I/O must stay in one shard, so
// one cgroup on devices of two shards is rejected, and the rejected
// placement binds nothing.
func TestShardedCgroupConflict(t *testing.T) {
	cl, err := NewFleet(Options{
		Knob: KnobIOCost, Devices: 2, Cores: 4, Seed: 1, Observe: true,
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
	a.Core = 0
	if _, err := cl.AddApp(a, 0); err != nil {
		t.Fatal(err)
	}
	b := workload.LCApp("b", g)
	b.Core = 1
	_, err = cl.AddApp(b, 1)
	if err == nil {
		t.Fatal("cgroup t doing I/O on devices 0 and 1 across shards should be rejected")
	}
	if !strings.Contains(err.Error(), "bound to shard") || !strings.Contains(err.Error(), "/isolbench.slice/t") {
		t.Fatalf("conflict error should name the cgroup and the shards: %v", err)
	}
	// The failed placement left core 1 unbound: another cgroup on
	// device 1 may still take it.
	h, err := cl.NewGroup("u")
	if err != nil {
		t.Fatal(err)
	}
	c2 := workload.LCApp("c", h)
	c2.Core = 1
	if _, err := cl.AddApp(c2, 1); err != nil {
		t.Fatalf("core 1 stayed bound after a rejected placement: %v", err)
	}
	// Unobserved fleets keep per-cgroup state nowhere, so they do not
	// bind cgroups.
	cl, err = NewFleet(Options{Knob: KnobIOCost, Devices: 2, Cores: 4, Control: RunControl{Shards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g, err = cl.NewGroup("t"); err != nil {
		t.Fatal(err)
	}
	for dev := 0; dev < 2; dev++ {
		a := workload.LCApp(fmt.Sprint("a", dev), g)
		a.Core = dev
		if _, err := cl.AddApp(a, dev); err != nil {
			t.Fatalf("unobserved fleet rejected a cgroup spanning shards: %v", err)
		}
	}
}

// TestShardedObserveCapFallsBack pins when a Shards request yields one
// shard: the observer's and the tracker's cgroup caps fold in
// fleet-wide order, and a one-device fleet has one column to shard. A
// one-shard fleet runs on Fleet.Eng itself, so it is the single-engine
// run by construction.
func TestShardedObserveCapFallsBack(t *testing.T) {
	for _, opts := range []Options{
		{Devices: 2, Observe: true, ObsConfig: obs.Config{MaxCgroups: 4}},
		{Devices: 2, Attr: true, AttrConfig: attr.Config{MaxVictims: 4}},
		{Devices: 1, Attr: true},
	} {
		opts.Knob, opts.Control = KnobIOCost, RunControl{Shards: 8}
		cl, err := NewFleet(opts)
		if err != nil {
			t.Fatal(err)
		}
		if cl.Shards() != 1 || cl.EngFor(0) != cl.Eng || cl.Obs != cl.shardObs[0] || cl.Attr != cl.shardAttr[0] {
			t.Fatalf("%d-device fleet: %d shards, want one shard on the fleet engine, observer and tracker",
				opts.Devices, cl.Shards())
		}
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
