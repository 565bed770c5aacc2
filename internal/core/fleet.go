package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"isolbench/internal/blk"
	"isolbench/internal/cgroup"
	"isolbench/internal/device"
	"isolbench/internal/fault"
	"isolbench/internal/host"
	"isolbench/internal/ioctl/iocost"
	"isolbench/internal/ioctl/iolatency"
	"isolbench/internal/ioctl/iomax"
	"isolbench/internal/iosched/bfq"
	"isolbench/internal/iosched/mqdeadline"
	"isolbench/internal/iosched/noop"
	"isolbench/internal/obs"
	"isolbench/internal/obs/attr"
	"isolbench/internal/shaper"
	"isolbench/internal/sim"
	"isolbench/internal/trace"
	"isolbench/internal/workload"
)

// Placement selects which device column a new tenant lands on when its
// spec does not pin one.
type Placement int

// Placement policies.
const (
	// PlaceRoundRobin cycles tenants across devices in arrival order
	// (the default; matches how earlier experiments spread apps).
	PlaceRoundRobin Placement = iota
	// PlacePacked fills the lowest-indexed device up to Options.PackLimit
	// tenants before spilling to the next; with PackLimit 0 every tenant
	// lands on device 0 — the worst-case-contention policy.
	PlacePacked
	// PlaceWeightedSpread puts each tenant on the device with the
	// smallest placement-weight sum (lowest index on ties), balancing
	// heterogeneous tenants rather than counts.
	PlaceWeightedSpread
)

func (p Placement) String() string {
	switch p {
	case PlacePacked:
		return "packed"
	case PlaceWeightedSpread:
		return "weighted-spread"
	default:
		return "round-robin"
	}
}

// DeviceColumn is one device's full request path: the device itself,
// its blk queue (scheduler + controller wired for the fleet's knob),
// and the optional fault injector and controller handles. Columns are
// the unit of placement — a tenant's apps all feed one column.
type DeviceColumn struct {
	Index  int
	Dev    *device.Device
	Queue  *blk.Queue
	Fault  *fault.Injector       // nil unless Options.Fault is enabled
	IOLat  *iolatency.Controller // nil unless the knob is io.latency
	IOCost *iocost.Controller    // nil unless the knob is io.cost
	Shaper *shaper.Shaper        // nil unless the knob is adaptive
}

// Fleet is the assembled testbed: engine, CPU, cgroup tree, N device
// columns, and the tenants/apps added so far. It supports mid-run
// churn — AddTenant/RemoveTenant while the engine runs — with drained
// teardown so the conservation invariants keep holding.
type Fleet struct {
	Opts Options

	Eng     *sim.Engine
	CPU     *host.CPU
	Tree    *cgroup.Tree
	Devices []*device.Device
	Queues  []*blk.Queue
	Slice   *cgroup.Group // the management group tenant groups live under

	// Columns holds the per-device request paths, parallel to Devices
	// and Queues.
	Columns []*DeviceColumn

	// Obs is the observability hub; nil unless Options.Observe. On one
	// shard it is that shard's observer; on several it is a read-only
	// merged view over the per-shard observers (obs.NewMerged) that
	// also records the coordinator's incidents.
	Obs *obs.Observer

	// Attr is the wait-for-whom tracker; nil unless Options.Attr. On
	// several shards it is a read-only merged view, like Obs.
	Attr *attr.Tracker

	// Faults holds each device's injector when Options.Fault is
	// enabled (index by device); nil otherwise.
	Faults []*fault.Injector

	// Knob-specific controller handles for introspection (index by
	// device); nil slices when the knob does not use them.
	IOLat  []*iolatency.Controller
	IOCost []*iocost.Controller

	// Shapers holds each device column's closed-loop shaper when the
	// knob is KnobAdaptive (index by device); nil otherwise. Every
	// tenant group registers with every column's shaper — a shaper
	// ignores groups with no traffic on its device, so multi-device
	// placement needs no extra plumbing.
	Shapers []*shaper.Shaper

	Apps   []*workload.App
	Groups []*cgroup.Group

	// Replays lists the open-loop trace replayers (streamed from
	// trace.Sources); replayDev is their device index, parallel.
	Replays   []*workload.ReplayApp
	replayDev []int

	// Tenants lists the live tenant handles in creation order (removed
	// tenants drop out once their teardown finishes).
	Tenants []*Tenant

	appSeq     uint64
	appDev     []int // device index per app, parallel to Apps
	started    bool
	busyBefore []sim.Duration
	ctxBefore  float64
	cycBefore  float64
	iosBefore  uint64
	measStart  sim.Time

	// Placement bookkeeping: tenant count and placement-weight sum per
	// device column.
	tenantSeq  int
	rrNext     int
	devTenants []int
	devLoad    []float64
	removals   int

	// Churn accounting for the paranoid checker. Removed tenants leave
	// the Apps roster, so their window-banked bytes (and edge slack)
	// move into these accumulators; both reset when a new measurement
	// window opens. maxReqSize tracks the largest request size any app
	// ever used, so the device-vs-io.stat slack stays valid after the
	// app that set it is gone. churnViolations records teardown failures
	// (a cgroup that refused removal) for CheckInvariants.
	retiredR        int64
	retiredW        int64
	retiredSlack    int64
	maxReqSize      int64
	churnViolations []string

	// obsBase holds the io.stat byte total at measStart so the paranoid
	// window check can compare app-window bytes against the io.stat
	// delta; obsBaseSet marks that the snapshot exists.
	obsBase    int64
	obsBaseSet bool
	// incidentNoted dedups the obs incident for a sticky engine error
	// reported by several RunPhase/RunTo calls.
	incidentNoted bool
	// invariantChecks counts CheckInvariants calls.
	invariantChecks int

	// Shard state. Each device column is pinned to one shard engine.
	// With one shard that engine is c.Eng itself; with several, c.Eng
	// is the global engine, which only hosts events scheduled while no
	// shard window is running (setup-time schedules like churn
	// arrivals, and barrier work).
	shardEngs []*sim.Engine
	colShard  []int // device column -> shard index
	coreShard []int // CPU core -> owning shard (-1 until first use)

	// Per-shard observation (observed fleets): shard i's observer (with
	// its SLO monitor) and tracker run on shard i's clock and see only
	// shard i's columns. cgShard binds each cgroup that does I/O to one
	// shard at its first app, replayer or tenant, so per-cgroup state
	// never spans two shards.
	shardObs  []*obs.Observer
	shardAttr []*attr.Tracker
	cgShard   map[int]int

	// reqPools holds the per-shard request freelists injected into
	// every app. Requests recycle strictly within one engine's event
	// stream, keeping reuse deterministic.
	reqPools []*device.Pool

	// Deferred tenant-teardown state: while a shard window runs
	// (winActive), the global half of finishRemove queues here and is
	// applied at the next window barrier in (drain time, tenant ID)
	// order.
	winActive     bool
	retireMu      sync.Mutex
	pendingRetire []pendingRetire
}

// pendingRetire is one drained tenant awaiting its global teardown at
// the next window barrier.
type pendingRetire struct {
	at   sim.Time
	t    *Tenant
	done func(error)
}

// NewFleet assembles a testbed for the given options.
func NewFleet(opts Options) (*Fleet, error) {
	opts = opts.withDefaults()
	c := &Fleet{
		Opts: opts,
		Eng:  sim.NewEngine(),
		Tree: cgroup.NewTree(),
	}
	c.CPU = host.NewCPU(c.Eng, opts.Cores)
	n := max(min(opts.Control.Shards, opts.Devices), 1)
	if (opts.Observe && opts.ObsConfig.MaxCgroups > 0) || (opts.Attr && opts.AttrConfig.MaxVictims > 0) {
		// The cgroup caps fold cgroups beyond the bound in the order
		// the whole fleet first sees them, which no shard can know.
		n = 1
	}
	// One shard runs on the fleet engine itself; more get their own.
	c.shardEngs = []*sim.Engine{c.Eng}
	if n > 1 {
		c.shardEngs = make([]*sim.Engine, n)
		for i := range c.shardEngs {
			c.shardEngs[i] = sim.NewEngine()
		}
	}
	c.coreShard = make([]int, opts.Cores)
	for i := range c.coreShard {
		c.coreShard[i] = -1
	}
	// One request freelist per shard engine: apps Get at submit and Put
	// at reap, so the steady-state working set is the fleet's aggregate
	// queue depth instead of a fresh arena per app.
	c.reqPools = make([]*device.Pool, n)
	for i := range c.reqPools {
		c.reqPools[i] = device.NewPool()
	}
	if opts.Control.armed() {
		// The same watchdog config is armed on every engine: it only
		// observes the event stream, so a run that does not trip it is
		// bit-identical either way. In sharded runs MaxEvents/StallEvents
		// bound each shard separately.
		c.Eng.SetWatchdog(opts.Control.watchdog())
		for _, se := range c.shardEngs {
			se.SetWatchdog(opts.Control.watchdog())
		}
	}

	if opts.Observe {
		for _, se := range c.shardEngs {
			o, t := c.newObservation(se)
			c.shardObs = append(c.shardObs, o)
			c.shardAttr = append(c.shardAttr, t)
		}
		c.cgShard = make(map[int]int)
		c.Obs, c.Attr = c.shardObs[0], c.shardAttr[0]
		if n > 1 {
			c.Obs = obs.NewMerged(c.Eng, opts.ObsConfig, c.shardObs)
			c.Obs.CgroupName = c.cgroupName
			c.Obs.EnableSLO(opts.SLO)
			if opts.Attr {
				c.Attr = attr.NewMerged(c.shardAttr)
				c.Obs.Attr = c.Attr
			}
		}
		c.Tree.SetStatProvider(c.Obs)
	}

	slice, err := c.Tree.Root().Create("isolbench.slice")
	if err != nil {
		return nil, err
	}
	if err := slice.EnableController("io"); err != nil {
		return nil, err
	}
	c.Slice = slice

	for i := 0; i < opts.Devices; i++ {
		if err := c.addColumn(i); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// newObservation builds an observer (with the SLO monitor when one is
// configured) and, when Options.Attr, its attribution tracker, both on
// engine eng's clock.
func (c *Fleet) newObservation(eng *sim.Engine) (*obs.Observer, *attr.Tracker) {
	o := obs.NewWithConfig(eng, c.Opts.ObsConfig)
	o.CgroupName = c.cgroupName
	var t *attr.Tracker
	if c.Opts.Attr {
		t = attr.NewTracker(eng, c.Opts.AttrConfig)
		o.Attr = t
	}
	o.EnableSLO(c.Opts.SLO)
	return o, t
}

// cgroupName resolves a cgroup id to its path for observer exports.
func (c *Fleet) cgroupName(id int) string {
	if g := c.Tree.ByID(id); g != nil {
		return g.Path()
	}
	return ""
}

// obsFor returns the observer and tracker device column i's hooks feed:
// its shard's, or nil when the fleet is not observed.
func (c *Fleet) obsFor(i int) (*obs.Observer, *attr.Tracker) {
	if c.shardObs == nil {
		return nil, nil
	}
	s := c.colShard[i]
	return c.shardObs[s], c.shardAttr[s]
}

// configureIOCostRoot writes the root io.cost.model/io.cost.qos lines
// for device i.
func (c *Fleet) configureIOCostRoot(i int) error {
	if err := c.Tree.Root().SetFile("io.cost.model", DevName(i)+" "+c.Opts.IOCostModel); err != nil {
		return fmt.Errorf("io.cost.model: %w", err)
	}
	if err := c.Tree.Root().SetFile("io.cost.qos", DevName(i)+" "+c.Opts.IOCostQoS); err != nil {
		return fmt.Errorf("io.cost.qos: %w", err)
	}
	return nil
}

// addColumn builds device column i: the knob's root-cgroup lines, the
// device, the knob's scheduler and controller, the observability/
// attribution/fault wiring, and the blk queue, in exactly the order the
// original single-loop constructor used (the seed derivations depend on
// the device index only, so columns added later draw the same streams
// they always would have).
func (c *Fleet) addColumn(i int) error {
	opts := c.Opts
	spec := opts.Knob.spec()
	if spec.root != nil {
		if err := spec.root(c, i); err != nil {
			return err
		}
	}
	c.colShard = append(c.colShard, i%len(c.shardEngs))
	eng := c.EngFor(i)
	ob, at := c.obsFor(i)
	dev, err := device.New(eng, opts.Profile, opts.Seed*1000003+uint64(i)+1)
	if err != nil {
		return err
	}
	if opts.Precondition {
		dev.Precondition()
	}
	col := &DeviceColumn{Index: i, Dev: dev}
	var sched blk.Scheduler = noop.New()
	if spec.sched != nil {
		sched = spec.sched(c, eng, ob)
	}
	var ctl blk.Controller
	if spec.ctl != nil {
		ctl = spec.ctl(c, col, eng, ob)
	}
	if ob != nil {
		name := DevName(i)
		dev.OnGC = func(active bool, debtBytes int64) {
			on := 0.0
			if active {
				on = 1
			}
			ob.Sample("dev.gc_active."+name, -1, on)
			ob.Sample("dev.gc_debt."+name, -1, float64(debtBytes))
		}
	}
	if opts.Fault.Enabled() {
		// The injector's seed stream is disjoint from the device
		// seed (opts.Seed*1000003+i+1) so attaching faults never
		// perturbs the device's own jitter draws.
		in, err := fault.NewInjector(opts.Fault, opts.Seed*2654435761+uint64(i)+500009)
		if err != nil {
			return fmt.Errorf("fault profile: %w", err)
		}
		dev.AttachFaults(in)
		c.Faults = append(c.Faults, in)
		col.Fault = in
	}
	c.Devices = append(c.Devices, dev)
	q := blk.NewQueue(eng, dev, sched, ctl)
	q.SetObserver(ob, DevName(i))
	if at != nil {
		q.SetAttribution(at)
		// Schedulers share the queue's dispatch-stream ledger so
		// they can own intervals where nothing dispatches (BFQ
		// idling, MQ-DL strict-priority recency blocks);
		// controllers charge their throttle holds directly.
		switch s := sched.(type) {
		case *mqdeadline.Scheduler:
			s.Led = q.SchedLedger()
		case *bfq.Scheduler:
			s.Led = q.SchedLedger()
		}
		switch t := ctl.(type) {
		case *iomax.Controller:
			t.Attr = at
		case *iolatency.Controller:
			t.Attr = at
		case *iocost.Controller:
			t.Attr = at
		}
	}
	retry := opts.Retry
	if retry == (blk.RetryPolicy{}) && opts.Fault.Enabled() {
		retry = blk.DefaultRetryPolicy()
	}
	if retry != (blk.RetryPolicy{}) {
		q.SetRetryPolicy(retry)
	}
	c.Queues = append(c.Queues, q)
	col.Queue = q
	c.Columns = append(c.Columns, col)
	c.devTenants = append(c.devTenants, 0)
	c.devLoad = append(c.devLoad, 0)
	return nil
}

// AddDevice grows the fleet by one device column (usable mid-run: the
// new device's RNG streams depend only on its index, and the engine
// clamps nothing — the column simply starts existing now). Returns the
// new column's device index.
func (c *Fleet) AddDevice() (int, error) {
	i := len(c.Devices)
	if err := c.addColumn(i); err != nil {
		return 0, err
	}
	return i, nil
}

// Column returns device column i.
func (c *Fleet) Column(i int) *DeviceColumn { return c.Columns[i] }

// EngFor returns the engine that device column i's events run on: the
// column's shard engine, which is c.Eng on a one-shard fleet.
// Components that schedule per-device runtime events (extra managers,
// replayers) must use this engine, not c.Eng.
func (c *Fleet) EngFor(i int) *sim.Engine {
	if i < len(c.colShard) {
		return c.shardEngs[c.colShard[i]]
	}
	return c.Eng
}

// Shards reports the effective shard count: min(Control.Shards,
// Devices), at least 1, and 1 whenever an obs/attr cgroup cap is set.
func (c *Fleet) Shards() int { return len(c.shardEngs) }

// NewGroup creates a tenant process group under the benchmark slice.
func (c *Fleet) NewGroup(name string) (*cgroup.Group, error) {
	g, err := c.Slice.Create(name)
	if err != nil {
		return nil, err
	}
	c.Groups = append(c.Groups, g)
	for _, sh := range c.Shapers {
		sh.Register(g)
	}
	return g, nil
}

// AddApp creates an app bound to device dev and registers it. The app
// runs on its device column's shard engine (see bindShard for the core
// and cgroup rules).
func (c *Fleet) AddApp(spec workload.Spec, dev int) (*workload.App, error) {
	pool, at, err := c.bindShard("app", spec.Name, dev, spec.Core, spec.Group)
	if err != nil {
		return nil, err
	}
	c.appSeq++
	app, err := workload.NewApp(c.EngFor(dev), c.CPU, c.Opts.Costs, c.Queues[dev],
		spec, c.Opts.Seed*7919+c.appSeq)
	if err != nil {
		return nil, err
	}
	app.UsePool(pool)
	if at != nil {
		app.SetAttribution(at)
	}
	c.Apps = append(c.Apps, app)
	c.appDev = append(c.appDev, dev)
	if s := app.Spec().Size; s > c.maxReqSize {
		c.maxReqSize = s
	}
	return app, nil
}

// AddReplay creates an open-loop trace replayer streaming from src
// against device dev and registers it. Shard rules match AddApp.
func (c *Fleet) AddReplay(src trace.Source, cfg workload.ReplayConfig, dev int) (*workload.ReplayApp, error) {
	pool, _, err := c.bindShard("replay", cfg.Name, dev, cfg.Core, cfg.Group)
	if err != nil {
		return nil, err
	}
	app, err := workload.NewReplayApp(c.EngFor(dev), c.CPU, c.Opts.Costs, c.Queues[dev], src, cfg)
	if err != nil {
		return nil, err
	}
	app.UsePool(pool)
	c.Replays = append(c.Replays, app)
	c.replayDev = append(c.replayDev, dev)
	return app, nil
}

// bindShard checks and records the shard bindings an app or replayer
// (kind, name) on device dev needs, and returns the request pool and
// attribution tracker it must use. The core binds to the device's shard
// on first use: a core cannot serve two shards (their completion events
// would interleave across engines). In an observed fleet the cgroup
// binds the same way, so its io.stat, PSI, SLO windows and blame rows
// are all kept by one shard. A placement that breaks either binding is
// rejected, and nothing is bound when it is.
func (c *Fleet) bindShard(kind, name string, dev, core int, g *cgroup.Group) (*device.Pool, *attr.Tracker, error) {
	if dev < 0 || dev >= len(c.Queues) {
		return nil, nil, fmt.Errorf("core: device index %d out of range", dev)
	}
	_, at := c.obsFor(dev)
	shard := c.colShard[dev]
	if core < 0 {
		core = -core
	}
	core %= len(c.CPU.Cores)
	if s := c.coreShard[core]; s >= 0 && s != shard {
		return nil, nil, fmt.Errorf(
			"core: %s %q on device %d needs core %d in shard %d, but the core is bound to shard %d (run with -shards 1, or place shard-disjoint cores)",
			kind, name, dev, core, shard, s)
	}
	if c.cgShard != nil && g != nil {
		if s, ok := c.cgShard[g.ID()]; ok && s != shard {
			return nil, nil, fmt.Errorf(
				"core: %s %q on device %d puts cgroup %s in shard %d, but the cgroup is bound to shard %d (run with -shards 1, or keep each cgroup's devices in one shard)",
				kind, name, dev, g.Path(), shard, s)
		}
		c.cgShard[g.ID()] = shard
	}
	if c.coreShard[core] < 0 {
		cpu := c.CPU.Cores[core]
		cpu.Rebind(c.shardEngs[shard])
		// The core's occupancy ledger, which blames submission/reap
		// queueing on the cgroup holding the core, comes from its
		// shard's tracker (nil when attribution is off).
		cpu.SetLedger(at.NewLedger(attr.LayerCPU))
		c.coreShard[core] = shard
	}
	return c.reqPools[shard], at, nil
}

// Start arms every app and replayer.
func (c *Fleet) Start() {
	if c.started {
		return
	}
	c.started = true
	for _, a := range c.Apps {
		a.Start()
	}
	for _, rp := range c.Replays {
		rp.Start()
	}
}

// Started reports whether the fleet's apps have been armed.
func (c *Fleet) Started() bool { return c.started }

// RunPhase runs warmup (discarded) then a measurement window.
// It may be called repeatedly; each call opens a fresh window.
//
// The error is non-nil only when the engine stopped early: the run
// context was canceled (errors.Is(err, context.Canceled)), the
// watchdog aborted the unit (errors.Is(err, sim.ErrWatchdog)), or —
// in paranoid mode — an invariant was violated at window end.
func (c *Fleet) RunPhase(warmup, measure sim.Duration) error {
	c.Start()
	c.advance(c.Eng.Now().Add(warmup))
	if err := c.runErr(); err != nil {
		return err
	}
	for _, a := range c.Apps {
		a.ResetMetrics()
	}
	for _, rp := range c.Replays {
		rp.ResetMetrics()
	}
	c.busyBefore = c.CPU.BusySnapshot()
	c.ctxBefore, c.cycBefore, c.iosBefore = c.CPU.Counters()
	c.measStart = c.Eng.Now()
	c.retiredR, c.retiredW, c.retiredSlack = 0, 0, 0
	if c.Opts.Control.Paranoid {
		c.snapshotParanoid()
	}
	c.advance(c.Eng.Now().Add(measure))
	if err := c.runErr(); err != nil {
		return err
	}
	if c.Opts.Control.Paranoid {
		return c.checkAndNote()
	}
	return nil
}

// RunTo starts the fleet (if necessary) and runs the engine to
// absolute virtual time t — the open-loop variant of RunPhase used by
// the burst and illustrate experiments. Error semantics match
// RunPhase.
func (c *Fleet) RunTo(t sim.Time) error {
	c.Start()
	c.advance(t)
	if err := c.runErr(); err != nil {
		return err
	}
	if c.Opts.Control.Paranoid {
		return c.checkAndNote()
	}
	return nil
}

// advance moves all virtual clocks to t: a plain RunUntil on one
// shard, the conservative-window barrier loop on several.
func (c *Fleet) advance(t sim.Time) {
	if len(c.shardEngs) == 1 {
		c.Eng.RunUntil(t)
		return
	}
	c.runSharded(t)
}

// runSharded advances a sharded fleet to t. The global engine's
// pending events define the barriers: between consecutive global
// events every shard advances independently (in parallel) through the
// half-open window ending at the barrier, then the barrier's global
// events run alone, with every shard paused at the barrier instant.
//
// This ordering is byte-identical to the single-engine run as long as
// the global engine only hosts events scheduled OUTSIDE shard windows
// (setup-time schedules like churn arrivals, or events scheduled by
// other global events): such events always carry smaller sequence
// numbers than any same-instant event scheduled during the run, so the
// single engine would also run them first.
func (c *Fleet) runSharded(t sim.Time) {
	for {
		nt, ok := c.Eng.PeekNext()
		if !ok || nt > t {
			break
		}
		c.runWindows(nt, false)
		c.applyRetires()
		if c.anyEngErr() != nil {
			return
		}
		c.Eng.RunUntil(nt)
		if c.Eng.Err() != nil {
			return
		}
	}
	// Final window: inclusive of t, like RunUntil.
	c.runWindows(t, true)
	c.applyRetires()
	c.Eng.RunUntil(t)
}

// runWindows advances every shard to the window edge t — exclusive
// (RunBefore) at a barrier, inclusive (RunUntil) for the final window.
// Shards share no mutable state inside a window: cross-shard effects
// (tenant teardown's global half) are queued and applied at the
// barrier by the coordinator.
func (c *Fleet) runWindows(t sim.Time, inclusive bool) {
	c.winActive = true
	var wg sync.WaitGroup
	for _, se := range c.shardEngs {
		wg.Add(1)
		go func(e *sim.Engine) {
			defer wg.Done()
			if inclusive {
				e.RunUntil(t)
			} else {
				e.RunBefore(t)
			}
		}(se)
	}
	wg.Wait()
	c.winActive = false
}

// applyRetires applies the global half of every tenant teardown that
// drained during the last shard window, in (drain time, tenant ID)
// order. Same-instant teardowns of different tenants commute — the
// rosters, counters, and cgroup removals they touch are disjoint — so
// this order matches the single-engine run observably even when it
// differs by engine sequence.
func (c *Fleet) applyRetires() {
	if len(c.pendingRetire) == 0 {
		return
	}
	sort.Slice(c.pendingRetire, func(i, j int) bool {
		a, b := c.pendingRetire[i], c.pendingRetire[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.t.ID < b.t.ID
	})
	pend := c.pendingRetire
	c.pendingRetire = nil
	for _, p := range pend {
		c.finishRemoveGlobal(p.t, p.done)
	}
}

// anyEngErr returns the first sticky stop reason across the global and
// shard engines (global first, then shard order, so the report is
// deterministic even when several watchdogs tripped in one window).
func (c *Fleet) anyEngErr() error {
	if err := c.Eng.Err(); err != nil {
		return err
	}
	for _, se := range c.shardEngs {
		if err := se.Err(); err != nil {
			return err
		}
	}
	return nil
}

// runErr surfaces the engines' sticky stop reason, recording it once
// as an obs incident so aborts show up in exports and summaries.
func (c *Fleet) runErr() error {
	err := c.anyEngErr()
	if err == nil {
		return nil
	}
	if c.Obs != nil && !c.incidentNoted {
		c.incidentNoted = true
		kind := obs.IncidentCancel
		if errors.Is(err, sim.ErrWatchdog) {
			kind = obs.IncidentWatchdog
		}
		c.Obs.RecordIncident(kind, err.Error())
	}
	return err
}

// checkAndNote runs the paranoid invariant suite and records a
// violation as an obs incident before returning it.
func (c *Fleet) checkAndNote() error {
	err := c.CheckInvariants()
	if err != nil && c.Obs != nil {
		c.Obs.RecordIncident(obs.IncidentInvariant, err.Error())
	}
	return err
}
