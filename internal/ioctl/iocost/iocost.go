// Package iocost implements the io.cost (+ io.weight) cgroup knob, the
// work-conserving weighted I/O controller introduced by Heo et al.
// (IOCost, ASPLOS'22) and evaluated as cgroups' most capable knob by
// the paper. Mechanism:
//
//   - A linear device model (io.cost.model) prices every request in
//     virtual time: cost = perIO[op,pattern] + pages*perPage[op], with
//     coefficients derived exactly like the kernel's (the per-IO
//     coefficient is the IOPS-implied cost minus the page component).
//   - Each active group owns a vtime clock charged cost/hweight per
//     issued request, where hweight is the group's hierarchical share
//     of io.weight among active groups.
//   - A request may issue while the group's vtime is within a margin
//     of the global virtual clock, which advances at vrate; otherwise
//     it is delayed until the clock catches up.
//   - QoS (io.cost.qos): each period the controller compares measured
//     read/write latency percentiles against the configured targets
//     and scales vrate down (congested) or up (idle) within
//     [min, max] percent.
package iocost

import (
	"sort"

	"isolbench/internal/blk"
	"isolbench/internal/cgroup"
	"isolbench/internal/device"
	"isolbench/internal/metrics"
	"isolbench/internal/obs"
	"isolbench/internal/obs/attr"
	"isolbench/internal/sim"
)

// Control intervals.
const (
	// Period is the vtime pacing granularity and activation window.
	Period = 10 * sim.Millisecond
	// QoSPeriod is how often vrate is adjusted against QoS targets.
	QoSPeriod = 100 * sim.Millisecond
	// margin is how far ahead of the global clock a group may run
	// (its budget window).
	margin = float64(5 * sim.Millisecond)

	pageSize = 4096
)

// coefs are the derived linear model coefficients in virtual
// nanoseconds (at vrate=1.0, the device completes 1e9 vns of work per
// second).
type coefs struct {
	perPage [2]float64 // vns per 4 KiB page, by op
	perSeq  [2]float64 // per-IO vns for sequential requests, by op
	perRand [2]float64 // per-IO vns for random requests, by op
}

// deriveCoefs mirrors the kernel's calc: page cost from the bps
// coefficient; per-IO cost is the IOPS-implied cost minus one page.
func deriveCoefs(m cgroup.CostModel) coefs {
	var c coefs
	const v = 1e9
	c.perPage[device.Read] = v * pageSize / m.RBps
	c.perPage[device.Write] = v * pageSize / m.WBps
	c.perSeq[device.Read] = nonNeg(v/m.RSeqIOPS - c.perPage[device.Read])
	c.perRand[device.Read] = nonNeg(v/m.RRandIOPS - c.perPage[device.Read])
	c.perSeq[device.Write] = nonNeg(v/m.WSeqIOPS - c.perPage[device.Write])
	c.perRand[device.Write] = nonNeg(v/m.WRandIOPS - c.perPage[device.Write])
	return c
}

func nonNeg(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// cost prices one request in virtual nanoseconds.
func (c coefs) cost(r *device.Request) float64 {
	pages := float64((r.Size + pageSize - 1) / pageSize)
	per := c.perRand[r.Op]
	if r.Seq {
		per = c.perSeq[r.Op]
	}
	return per + pages*c.perPage[r.Op]
}

// Controller is an io.cost instance for one device. It reads
// io.cost.model / io.cost.qos from the tree root and io.weight from
// each group.
type Controller struct {
	eng  *sim.Engine
	tree *cgroup.Tree
	dev  string
	next func(*device.Request)

	// Obs is the observability sink (nil = disabled): vrate is sampled
	// each QoS tick as "iocost.vrate", per-group post-donation hweights
	// each period as "iocost.hweight_inuse", and vtime debt is
	// published on io.stat as cost.debt_ns.
	Obs *obs.Observer

	// Attr is the wait-for-whom tracker (nil = off). io.cost is
	// work-conserving: a group waits on its vtime debt because other
	// active groups are consuming the device's virtual capacity, so the
	// hold splits across them in proportion to their hweights (self
	// when the group runs alone).
	Attr    *attr.Tracker
	attrIDs []int
	attrWs  []attr.AggrWeight

	coefs    coefs
	hasModel bool

	vrate       float64
	vnow        float64
	lastT       sim.Time
	lastPeriodV float64

	groups map[int]*gstate
	armed  bool

	// Persistent timer callbacks and the active-set predicate, built
	// once in New so steady-state scheduling allocates nothing.
	releaseCB sim.Callback
	periodFn  func()
	qosFn     func()
	activeFn  func(*cgroup.Group) bool

	rhist, whist metrics.Histogram

	// VRateLog records vrate at each QoS tick for introspection.
	vrateMin, vrateMax float64
}

type gstate struct {
	id      int
	vtime   float64
	hweight float64 // effective share after donation
	active  bool
	lastUse sim.Time
	waiting blk.Ring
	timer   sim.Timer // budget-check release
	absUsed float64   // raw (pre-weight) cost issued since the last period
}

// New returns an io.cost controller for one device.
func New(eng *sim.Engine, tree *cgroup.Tree, dev string) *Controller {
	c := &Controller{
		eng: eng, tree: tree, dev: dev,
		vrate:  1.0,
		groups: make(map[int]*gstate),
	}
	c.reloadConfig()
	c.vrateMin, c.vrateMax = c.vrate, c.vrate
	c.releaseCB = func(arg any) { c.release(arg.(*gstate)) }
	c.periodFn = c.periodTick
	c.qosFn = c.qosTick
	// Activation is per controller (per device), as in the kernel where
	// the active list hangs off the ioc, not the cgroup: a group busy on
	// one device must not count as an active sibling on another.
	c.activeFn = func(g *cgroup.Group) bool {
		s, ok := c.groups[g.ID()]
		return ok && s.active
	}
	return c
}

// Name returns "io.cost".
func (c *Controller) Name() string { return "io.cost" }

// Bind stores the forward hook.
func (c *Controller) Bind(next func(*device.Request)) { c.next = next }

// reloadConfig re-reads model and QoS from the root group.
func (c *Controller) reloadConfig() {
	k := c.tree.Root().Knobs()
	if m, ok := k.ModelFor(c.dev); ok {
		c.coefs = deriveCoefs(m)
		c.hasModel = true
	} else {
		c.hasModel = false
	}
	qos := c.qos()
	// Pin vrate inside the configured band immediately.
	if c.vrate < qos.Min/100 {
		c.vrate = qos.Min / 100
	}
	if c.vrate > qos.Max/100 {
		c.vrate = qos.Max / 100
	}
}

func (c *Controller) qos() cgroup.CostQoS {
	return c.tree.Root().Knobs().QoSFor(c.dev)
}

// VRate returns the current global rate multiplier.
func (c *Controller) VRate() float64 { return c.vrate }

// GroupState exposes a group's control state for tests and debugging:
// its effective (post-donation) hweight, how far its vtime runs ahead
// of the global clock, and its throttle queue length.
func (c *Controller) GroupState(id int) (hweight float64, aheadNs float64, waiting int) {
	s, ok := c.groups[id]
	if !ok {
		return 0, 0, 0
	}
	c.advance()
	return s.hweight, s.vtime - c.vnow, s.waiting.Len()
}

// VRateRange returns the observed (min, max) vrate over the run.
func (c *Controller) VRateRange() (float64, float64) { return c.vrateMin, c.vrateMax }

// advance moves the global virtual clock to now.
func (c *Controller) advance() {
	now := c.eng.Now()
	if now > c.lastT {
		c.vnow += float64(now.Sub(c.lastT)) * c.vrate
		c.lastT = now
	}
}

func (c *Controller) stateFor(id int) *gstate {
	s, ok := c.groups[id]
	if !ok {
		s = &gstate{id: id, hweight: 1}
		c.groups[id] = s
	}
	return s
}

// activate marks the group active and refreshes every active group's
// hierarchical weight (iocost recomputes hweights when the active set
// changes).
func (c *Controller) activate(s *gstate) {
	if s.active {
		return
	}
	s.active = true
	// A (re)activating group starts at the global clock: it must not
	// burn budget banked while idle.
	if s.vtime < c.vnow {
		s.vtime = c.vnow
	}
	c.refreshWeights()
}

func (c *Controller) refreshWeights() {
	// Shared per-parent sibling sums make the refresh O(groups) instead
	// of O(groups x siblings) — the difference between a fleet-scale
	// activation costing microseconds and one costing seconds.
	sums := make(map[*cgroup.Group]float64)
	for id, s := range c.groups {
		if !s.active {
			continue
		}
		if g := c.tree.ByID(id); g != nil {
			s.hweight = g.HierWeightIn(cgroup.WeightIOCost, c.activeFn, sums)
		} else {
			s.hweight = 1
		}
		if s.hweight <= 0 {
			s.hweight = 1e-4
		}
	}
}

// Submit prices and gates the request against the group's vtime
// budget.
func (c *Controller) Submit(r *device.Request) {
	c.armTimers()
	if !c.hasModel {
		// Without a model io.cost cannot price requests: pass through
		// (the kernel would fall back to an auto model; the benchmark
		// always configures one explicitly).
		c.next(r)
		return
	}
	c.advance()
	s := c.stateFor(r.Cgroup)
	c.activate(s)
	s.lastUse = c.eng.Now()
	if s.waiting.Len() == 0 && s.vtime <= c.vnow+margin {
		c.charge(s, r)
		c.next(r)
		return
	}
	s.waiting.Push(r)
	c.Attr.HoldBegin(r.Blame)
	c.Obs.ThrottleBegin(r.Cgroup)
	c.armRelease(s)
}

// attrWeights returns the other active groups' hweights in sorted id
// order, the deterministic split basis for a vtime-debt hold.
func (c *Controller) attrWeights(self int) []attr.AggrWeight {
	c.attrIDs = c.attrIDs[:0]
	for id, s := range c.groups {
		if id != self && s.active {
			c.attrIDs = append(c.attrIDs, id)
		}
	}
	sort.Ints(c.attrIDs)
	c.attrWs = c.attrWs[:0]
	for _, id := range c.attrIDs {
		c.attrWs = append(c.attrWs, attr.AggrWeight{Aggr: id, W: c.groups[id].hweight})
	}
	return c.attrWs
}

func (c *Controller) charge(s *gstate, r *device.Request) {
	cost := c.coefs.cost(r)
	s.absUsed += cost
	s.vtime += cost / s.hweight
}

// armRelease schedules the group's next budget check at the first
// whole nanosecond at which its vtime is back inside the margin. The
// wait rounds up, like the device pipe's: truncating it would fire a
// fraction of a nanosecond early, release nothing and re-arm at the
// floor. The floor still catches a floating-point residue left by
// advance.
func (c *Controller) armRelease(s *gstate) {
	c.advance()
	deficit := s.vtime - (c.vnow + margin)
	if deficit < 0 {
		deficit = 0
	}
	wait := sim.Duration(deficit/c.vrate) + 1
	if wait < 2*sim.Microsecond {
		wait = 2 * sim.Microsecond
	}
	c.eng.Reschedule(&s.timer, c.eng.Now().Add(wait), c.releaseCB, s)
}

// release forwards waiting requests while budget allows.
func (c *Controller) release(s *gstate) {
	c.advance()
	for s.waiting.Len() > 0 && s.vtime <= c.vnow+margin {
		r := s.waiting.Pop()
		c.charge(s, r)
		if c.Attr != nil {
			c.Attr.ChargeHoldSplit(r.Blame, attr.LayerThrottle,
				c.attrWeights(r.Cgroup), r.Cgroup)
		}
		c.Obs.ThrottleEnd(r.Cgroup)
		c.next(r)
	}
	if s.waiting.Len() > 0 {
		c.armRelease(s)
	}
}

// DetachGroup drops the cgroup's vtime clock after its traffic has
// drained (blk.GroupDetacher). A group with throttled requests still
// waiting keeps its state. Detaching an active group deactivates it in
// the tree first (while the group is still resolvable) and refreshes
// the surviving groups' hierarchical weights, exactly as a period-tick
// deactivation would.
func (c *Controller) DetachGroup(cg int) {
	s, ok := c.groups[cg]
	if !ok || s.waiting.Len() > 0 {
		return
	}
	c.eng.Cancel(&s.timer)
	wasActive := s.active
	delete(c.groups, cg)
	if wasActive {
		c.refreshWeights()
	}
}

// Completed records latency for QoS control.
func (c *Controller) Completed(r *device.Request) {
	lat := int64(r.Complete.Sub(r.Queued))
	if r.Op == device.Write {
		c.whist.Record(lat)
	} else {
		c.rhist.Record(lat)
	}
}

// armTimers starts the periodic activation sweep and QoS adjuster.
func (c *Controller) armTimers() {
	if c.armed {
		return
	}
	c.armed = true
	c.eng.After(Period, c.periodFn)
	c.eng.After(QoSPeriod, c.qosFn)
}

// periodTick deactivates groups idle for a full period and runs the
// donation pass: groups that used well under their share lend the
// excess to the rest (iocost's hweight_inuse mechanism), keeping the
// controller work-conserving when a high-weight group is light.
func (c *Controller) periodTick() {
	now := c.eng.Now()
	changed := false
	for _, s := range c.groups {
		if s.active && s.waiting.Len() == 0 && now.Sub(s.lastUse) > Period {
			s.active = false
			changed = true
		}
	}
	if changed {
		c.refreshWeights()
	}
	c.donate()
	if c.Obs != nil {
		// Sample post-donation shares and vtime debt on the period
		// ticker. Read-only: the clock was already advanced by donate.
		for id, s := range c.groups {
			if !s.active {
				continue
			}
			c.Obs.Sample("iocost.hweight_inuse", id, s.hweight)
			debt := s.vtime - c.vnow
			if debt < 0 {
				debt = 0
			}
			c.Obs.SetGauge(c.dev, id, "cost.debt_ns", debt)
			c.Obs.SetGauge(c.dev, id, "cost.nr_queued", float64(s.waiting.Len()))
		}
	}
	c.eng.After(Period, c.periodFn)
}

// donate redistributes unused share. Base shares come from the cgroup
// tree; a group that issued less than 90% of its share (and has no
// throttled requests) keeps its usage plus 20% headroom, and the
// remainder is split among the full users by their base shares. A
// donor that ramps back up snaps to its full share at the next period
// (or immediately, via the waiting check at the following tick).
func (c *Controller) donate() {
	c.advance()
	dv := c.vnow - c.lastPeriodV
	c.lastPeriodV = c.vnow
	if dv <= 0 {
		return
	}
	type entry struct {
		s     *gstate
		base  float64
		usage float64
		donor bool
	}
	var entries []entry
	var baseTotal float64
	sums := make(map[*cgroup.Group]float64)
	for id, s := range c.groups {
		if !s.active {
			s.absUsed = 0
			continue
		}
		base := 1.0
		if g := c.tree.ByID(id); g != nil {
			base = g.HierWeightIn(cgroup.WeightIOCost, c.activeFn, sums)
		}
		entries = append(entries, entry{s: s, base: base, usage: s.absUsed / dv})
		baseTotal += base
		s.absUsed = 0
	}
	if len(entries) == 0 || baseTotal <= 0 {
		return
	}
	var donated, nonDonorBase float64
	for i := range entries {
		e := &entries[i]
		e.base /= baseTotal
		if e.s.waiting.Len() == 0 && e.usage < 0.9*e.base {
			e.donor = true
			share := e.usage*1.2 + 0.01
			if share > e.base {
				share = e.base
			}
			e.s.hweight = share
			donated += share
		} else {
			nonDonorBase += e.base
		}
	}
	remaining := 1 - donated
	if remaining < 0.01 {
		remaining = 0.01
	}
	for i := range entries {
		e := &entries[i]
		if e.donor {
			continue
		}
		if nonDonorBase > 0 {
			e.s.hweight = remaining * e.base / nonDonorBase
		} else {
			e.s.hweight = e.base
		}
		if e.s.hweight <= 0 {
			e.s.hweight = 1e-4
		}
	}
}

// qosTick adjusts vrate against the latency targets.
func (c *Controller) qosTick() {
	qos := c.qos()
	if qos.Enable {
		missed := false
		if c.rhist.Count() > 0 && qos.RLat > 0 &&
			sim.Duration(c.rhist.Percentile(qos.RPct)) > qos.RLat {
			missed = true
		}
		if c.whist.Count() > 0 && qos.WLat > 0 &&
			sim.Duration(c.whist.Percentile(qos.WPct)) > qos.WLat {
			missed = true
		}
		c.advance()
		if missed {
			c.vrate *= 0.95
		} else {
			c.vrate *= 1.025
		}
	}
	lo, hi := qos.Min/100, qos.Max/100
	if c.vrate < lo {
		c.vrate = lo
	}
	if c.vrate > hi {
		c.vrate = hi
	}
	if c.vrate < c.vrateMin {
		c.vrateMin = c.vrate
	}
	if c.vrate > c.vrateMax {
		c.vrateMax = c.vrate
	}
	c.Obs.Sample("iocost.vrate", -1, c.vrate)
	c.rhist.Reset()
	c.whist.Reset()
	c.eng.After(QoSPeriod, c.qosFn)
}

// Overheads returns io.cost's hot-path profile: a modest fixed cost
// plus lock contention that only bites when the submitting core is
// backlogged — the paper's observed latency overhead past the CPU
// saturation point (O1: +48% P99 at 16 LC-apps).
func (c *Controller) Overheads() blk.Overheads {
	return blk.Overheads{
		SubmitCPU:        220 * sim.Nanosecond,
		CompleteCPU:      120 * sim.Nanosecond,
		ContentionFactor: 0.24,
		ContentionFree:   12 * sim.Microsecond,
		ContentionCap:    5 * sim.Microsecond,
		CyclesPerIO:      1400,
	}
}
