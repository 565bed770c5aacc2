package core

import (
	"fmt"

	"isolbench/internal/blk"
	"isolbench/internal/device"
	"isolbench/internal/fault"
	"isolbench/internal/host"
	"isolbench/internal/metrics"
	"isolbench/internal/obs"
	"isolbench/internal/obs/attr"
	"isolbench/internal/shaper"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// Default io.cost root configuration strings. DefaultCostModel is what
// the bundled iocost-coef-gen emits for the flash980 profile (an
// achievable model, like the paper's 2.3 GiB/s-saturation model);
// DefaultCostQoS mirrors the paper's P95 100 us read target with a 50%
// min window.
const (
	DefaultCostModel = "ctrl=user model=linear rbps=2469606195 rseqiops=561000 rrandiops=330000 wbps=859000000 wseqiops=210000 wrandiops=150000"
	DefaultCostQoS   = "enable=1 ctrl=user rpct=95.00 rlat=200 wpct=95.00 wlat=800 min=50.00 max=100.00"

	// Unthrottled* neutralize io.cost for overhead experiments: a
	// model far beyond device saturation and a pinned vrate.
	UnthrottledCostModel = "ctrl=user model=linear rbps=100000000000 rseqiops=10000000 rrandiops=10000000 wbps=100000000000 wseqiops=10000000 wrandiops=10000000"
	UnthrottledCostQoS   = "enable=0 min=100.00 max=100.00"
)

// Options configures a testbed fleet.
type Options struct {
	Knob    Knob
	Profile device.Profile // zero value -> flash980
	Devices int            // number of SSDs (default 1)
	Cores   int            // CPU cores (default 20, the paper's host)
	Seed    uint64
	Costs   host.Costs // zero value -> host.DefaultCosts()

	// Placement selects which device column a new tenant lands on
	// (AddTenant); the zero value is round-robin. PackLimit bounds the
	// tenants per device under PlacePacked (0 = pack everything on
	// device 0).
	Placement Placement
	PackLimit int

	// BFQSliceIdleOff disables BFQ's slice_idle (the paper does this
	// for overhead experiments).
	BFQSliceIdleOff bool
	// BFQLowLatency enables BFQ's low_latency weight boosting (the
	// paper disables it everywhere; kept for ablation).
	BFQLowLatency bool

	// IOCostModel / IOCostQoS are io.cost.model / io.cost.qos values
	// applied to the root for every device ("" -> defaults above).
	IOCostModel string
	IOCostQoS   string

	// Precondition ages every device so writes run at steady-state
	// amplification (required before any write experiment, §III).
	Precondition bool

	// Observe enables the observability layer: an obs.Observer is
	// created on the fleet's engine and wired into every queue,
	// controller, scheduler, and device, and registered as the cgroup
	// tree's io.stat/io.pressure provider. Off (the default) leaves
	// every hook holding a nil observer — the one-branch fast path.
	Observe bool
	// ObsConfig bounds the observer's ring buffers (zero = defaults).
	ObsConfig obs.Config

	// Attr enables interference attribution: an attr.Tracker is wired
	// into every queueing point (CPU cores, throttle holds, scheduler
	// queues, dispatch locks, device channels, GC stalls, retry
	// backoffs) so each request's wait decomposes into per-layer
	// charges against the cgroup occupying the resource. Implies
	// Observe. Like the observer, the tracker never schedules events
	// or draws randomness, so the event stream is byte-identical with
	// attribution on or off.
	Attr bool
	// AttrConfig bounds the tracker (zero = defaults: top-8 aggressors
	// per victim, 4096-segment ledgers).
	AttrConfig attr.Config

	// SLO arms burn-rate monitoring on the observer when SLO.P99 > 0:
	// completions are checked against the objective and multi-window
	// burn-rate incidents are recorded. Implies Observe.
	SLO obs.SLOConfig

	// Fault, when Enabled, attaches a per-device fault.Injector (seeded
	// from the fleet seed and device index, on a stream independent
	// of the device's own jitter RNG) and defaults Retry to
	// blk.DefaultRetryPolicy. The zero profile changes nothing — no
	// injector is attached and no watchdog events are scheduled, so
	// healthy runs stay byte-identical (TestFaultDisabledGolden pins
	// this).
	Fault fault.Profile
	// Retry overrides the blk recovery policy. The zero value means
	// "default when Fault is enabled, disabled otherwise".
	Retry blk.RetryPolicy

	// Control wires run-resilience (cancellation, deadlines, watchdog,
	// paranoid invariant checks) into the fleet's engine. The zero
	// value arms nothing.
	Control RunControl

	// Shaper configures the closed-loop adaptive shaper when Knob is
	// KnobAdaptive (zero value = shaper defaults). Ignored for every
	// other knob.
	Shaper shaper.Config
}

func (o Options) withDefaults() Options {
	if o.Profile.Channels == 0 {
		o.Profile = device.Flash980Profile()
	}
	if o.Devices <= 0 {
		o.Devices = 1
	}
	if o.Cores <= 0 {
		o.Cores = 20
	}
	if o.Costs == (host.Costs{}) {
		o.Costs = host.DefaultCosts()
	}
	if o.IOCostModel == "" {
		o.IOCostModel = DefaultCostModel
	}
	if o.IOCostQoS == "" {
		o.IOCostQoS = DefaultCostQoS
	}
	if o.Control.Paranoid {
		// The cross-layer byte-conservation checks compare app and
		// device counters against io.stat, which only exists with the
		// observer attached. Safe to force: TestObsDeterminism pins
		// that observation never perturbs the event stream.
		o.Observe = true
	}
	if o.Attr || o.SLO.P99 > 0 {
		// Attribution reports and SLO incidents surface through the
		// observer; forcing it is safe for the same reason as above.
		o.Observe = true
	}
	if o.Knob.spec().observe {
		// The knob's control loop estimates from io.stat/io.pressure/
		// SLO deltas, which only exist with the observer attached.
		o.Observe = true
	}
	if o.Control.Paranoid && o.Attr {
		// Paranoid runs verify per-request blame conservation exactly.
		o.AttrConfig.Strict = true
	}
	return o
}

// DevName returns the "major:minor" name of device i as used in cgroup
// control files.
func DevName(i int) string { return fmt.Sprintf("259:%d", i) }

// GroupStats aggregates one tenant group's apps over the measurement
// window.
type GroupStats struct {
	Name      string
	Weight    float64 // the weight used for fairness normalization
	IOs       uint64
	Errors    uint64 // requests failed up to the group's apps
	Bytes     int64
	BW        float64 // bytes per second over the window
	P50       sim.Duration
	P90       sim.Duration
	P99       sim.Duration
	MeanLatNs float64
}

// Result summarizes the last measurement window.
type Result struct {
	Knob   Knob
	Span   sim.Duration
	Apps   []workload.Stats
	Groups []GroupStats

	AggregateBW float64 // bytes/sec across all apps
	CPUUtil     float64 // 0..1 average across cores
	CtxPerIO    float64
	CyclesPerIO float64
	IOs         uint64

	// Recovery-path counters, summed over the fleet's queues. These
	// are cumulative since fleet construction (the blk layer has no
	// warmup reset) — zero on healthy runs.
	Errors   uint64
	Retries  uint64
	Timeouts uint64

	// Obs carries the run's observer when observability was enabled
	// (RunJobFile sets it); nil otherwise.
	Obs *obs.Observer
}

// Result collects measurements for the window opened by RunPhase.
// Tenants removed during the window are not represented — their apps
// left the roster at teardown (the fleetscale experiment reads churned
// windows through the aggregate device counters instead).
func (c *Fleet) Result() Result {
	span := c.Eng.Now().Sub(c.measStart)
	res := Result{Knob: c.Opts.Knob, Span: span}

	byGroup := make(map[int]*groupAcc)
	order := []int{}
	for _, a := range c.Apps {
		st := a.Stats()
		res.Apps = append(res.Apps, st)
		gid := a.Spec().Group.ID()
		acc, ok := byGroup[gid]
		if !ok {
			acc = &groupAcc{name: a.Spec().Group.Name()}
			byGroup[gid] = acc
			order = append(order, gid)
		}
		acc.bytes += st.ReadBytes + st.WriteBytes
		acc.ios += st.IOs
		acc.errs += st.Errors
		acc.hist.Merge(a.Histogram())
	}
	for _, gid := range order {
		acc := byGroup[gid]
		res.Groups = append(res.Groups, GroupStats{
			Name:      acc.name,
			Weight:    1,
			IOs:       acc.ios,
			Errors:    acc.errs,
			Bytes:     acc.bytes,
			BW:        float64(acc.bytes) / span.Seconds(),
			P50:       sim.Duration(acc.hist.Percentile(50)),
			P90:       sim.Duration(acc.hist.Percentile(90)),
			P99:       sim.Duration(acc.hist.Percentile(99)),
			MeanLatNs: acc.hist.Mean(),
		})
		res.AggregateBW += float64(acc.bytes) / span.Seconds()
		res.IOs += acc.ios
	}

	for _, q := range c.Queues {
		res.Errors += q.Failures()
		res.Retries += q.Retries()
		res.Timeouts += q.Timeouts()
	}

	res.CPUUtil = host.Utilization(c.busyBefore, c.CPU.BusySnapshot(), span)
	ctx, cyc, ios := c.CPU.Counters()
	if dios := ios - c.iosBefore; dios > 0 {
		res.CtxPerIO = (ctx - c.ctxBefore) / float64(dios)
		res.CyclesPerIO = (cyc - c.cycBefore) / float64(dios)
	}
	return res
}

type groupAcc struct {
	name  string
	bytes int64
	ios   uint64
	errs  uint64
	hist  metrics.Histogram
}

// MergedHistogram returns the merged latency histogram across all apps
// in the fleet (for CDF extraction over the last window).
func (c *Fleet) MergedHistogram() *metrics.Histogram {
	var h metrics.Histogram
	for _, a := range c.Apps {
		h.Merge(a.Histogram())
	}
	return &h
}
