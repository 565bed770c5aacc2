package core

import (
	"context"
	"time"

	"isolbench/internal/sim"
)

// DefaultStallEvents is the livelock threshold armed whenever a
// RunControl is active: this many consecutive events at one virtual
// instant aborts the unit. Healthy runs execute at most a few thousand
// same-timestamp events (bounded by batch sizes and queue depths), so
// ~4M is far outside normal operation while still tripping a true
// livelock in well under a second of wall time.
const DefaultStallEvents = 4 << 20

// RunControl carries the run-resilience settings down into every
// cluster an experiment builds: cancellation, per-unit wall deadline,
// event budgets, and the paranoid invariant checker. The zero value
// arms nothing and leaves runs byte-identical to an uncontrolled run.
type RunControl struct {
	// Ctx cancels the whole run: once done, in-flight simulations stop
	// at the next watchdog poll and runners return the context error.
	Ctx context.Context

	// Deadline is this unit's absolute wall-clock budget (zero = none).
	// It is absolute, not a duration, so one budget spans all the
	// clusters a unit builds (e.g. healthy + faulted resilience runs).
	Deadline time.Time

	// MaxEvents bounds each cluster's engine to this many executed
	// events (0 = unlimited).
	MaxEvents uint64

	// StallEvents overrides DefaultStallEvents (0 = use the default).
	StallEvents uint64

	// Paranoid turns on end-of-unit invariant checking (conservation
	// laws across workload, blk, device, and obs) plus the engine's
	// monotonic-clock assertion. Implies Observe on every cluster.
	Paranoid bool

	// Shards > 1 requests the parallel sharded runtime: each device
	// column runs on its own event engine, advanced through conservative
	// time windows so an N-device fleet uses up to N cores while staying
	// byte-identical to the single-engine run (see DESIGN.md "Memory
	// model & sharding"). The effective shard count is min(Shards,
	// Devices), at least 1; one shard runs on Fleet.Eng itself, so 0, 1
	// and any one-device fleet are the single-engine run. Observed
	// fleets (Observe/Attr/SLO/Paranoid) shard too, with one observer
	// and tracker per shard, unless a cgroup cap (ObsConfig.MaxCgroups,
	// AttrConfig.MaxVictims) is set: those fold in fleet-wide order, so
	// they get one shard. Fleetscale always sets both caps (its
	// MaxCgroups, default 64), so observed fleetscale runs get one
	// shard.
	//
	// Shards deliberately does NOT count toward armed(): it changes how
	// the event stream executes, not whether a watchdog observes it.
	Shards int
}

// armed reports whether any control is active.
func (c RunControl) armed() bool {
	return c.Ctx != nil || !c.Deadline.IsZero() || c.MaxEvents > 0 ||
		c.StallEvents > 0 || c.Paranoid
}

// watchdog translates the control into the engine's watchdog config.
func (c RunControl) watchdog() sim.Watchdog {
	w := sim.Watchdog{
		Ctx:         c.Ctx,
		Deadline:    c.Deadline,
		MaxEvents:   c.MaxEvents,
		StallEvents: c.StallEvents,
		Paranoid:    c.Paranoid,
	}
	if w.StallEvents == 0 {
		w.StallEvents = DefaultStallEvents
	}
	return w
}
