// Package iomax implements the io.max cgroup knob: static per-group
// token buckets limiting read/write bytes-per-second and IOPS. The
// mechanism matches the kernel's blk-throttle: a request dispatches
// when the group's token balance is non-negative and then charges its
// full cost (balances may go negative, so arbitrarily large requests
// still pass); throttled requests wait in arrival order until tokens
// accrue. io.max is deliberately static — it never redistributes
// unused bandwidth (the non-work-conserving behaviour of Fig. 2e and
// O8).
package iomax

import (
	"math"

	"isolbench/internal/blk"
	"isolbench/internal/cgroup"
	"isolbench/internal/device"
	"isolbench/internal/obs"
	"isolbench/internal/obs/attr"
	"isolbench/internal/sim"
)

// burstWindow bounds how many tokens may accumulate (the kernel's
// throtl_slice-style burst allowance).
const burstWindow = 100 * sim.Millisecond

// Controller is an io.max instance for one device.
type Controller struct {
	eng  *sim.Engine
	tree *cgroup.Tree
	dev  string
	next func(*device.Request)

	// Obs is the observability sink (nil = disabled): throttle
	// enter/exit feed io.pressure, token balances are sampled as the
	// "iomax.tokens.*" series, and the throttle-queue depth is
	// published on io.stat as max.nr_queued.
	Obs *obs.Observer

	// Attr is the wait-for-whom tracker (nil = off). io.max limits are
	// static per-group budgets, so a token wait is self-inflicted: the
	// whole hold charges to the waiting cgroup itself at HoldLayer
	// (LayerThrottle by default; the adaptive shaper rebinds it to
	// LayerShaper so its dynamic caps are blamed on the control loop).
	Attr      *attr.Tracker
	HoldLayer attr.Layer

	groups map[int]*bucket

	releaseCB sim.Callback // persistent deficit-timer callback
}

type bucket struct {
	id             int     // owning cgroup, for the persistent release timer
	rBytes, wBytes float64 // byte token balances
	rOps, wOps     float64 // op token balances
	last           sim.Time
	waiting        blk.Ring
	timer          sim.Timer // deficit-repaid release
}

// New returns an io.max controller reading limits for device dev from
// the cgroup tree.
func New(eng *sim.Engine, tree *cgroup.Tree, dev string) *Controller {
	c := &Controller{eng: eng, tree: tree, dev: dev, groups: make(map[int]*bucket), HoldLayer: attr.LayerThrottle}
	c.releaseCB = func(arg any) {
		b := arg.(*bucket)
		c.release(b.id, b)
	}
	return c
}

// Name returns "io.max".
func (c *Controller) Name() string { return "io.max" }

// Bind stores the forward-to-scheduler hook.
func (c *Controller) Bind(next func(*device.Request)) { c.next = next }

func (c *Controller) limits(id int) cgroup.IOMax {
	if g := c.tree.ByID(id); g != nil {
		return g.Knobs().MaxFor(c.dev)
	}
	return cgroup.Unlimited()
}

func (c *Controller) bucketFor(id int) *bucket {
	b, ok := c.groups[id]
	if !ok {
		b = &bucket{id: id, last: c.eng.Now()}
		c.groups[id] = b
	}
	return b
}

// refill accrues tokens since the last refill, capped at the burst
// window's worth.
func (c *Controller) refill(b *bucket, lim cgroup.IOMax) {
	now := c.eng.Now()
	dt := now.Sub(b.last).Seconds()
	if dt <= 0 {
		return
	}
	b.last = now
	b.rBytes = accrue(b.rBytes, lim.RBps, dt)
	b.wBytes = accrue(b.wBytes, lim.WBps, dt)
	b.rOps = accrue(b.rOps, lim.RIOPS, dt)
	b.wOps = accrue(b.wOps, lim.WIOPS, dt)
}

func accrue(balance, rate, dt float64) float64 {
	if math.IsInf(rate, 1) {
		return 0 // unlimited dimensions carry no balance
	}
	balance += rate * dt
	if cap := rate * burstWindow.Seconds(); balance > cap {
		balance = cap
	}
	return balance
}

// affordable reports whether the group may dispatch now (all limited
// dimensions have non-negative balances).
func affordable(b *bucket, lim cgroup.IOMax) bool {
	if !math.IsInf(lim.RBps, 1) && b.rBytes < 0 {
		return false
	}
	if !math.IsInf(lim.WBps, 1) && b.wBytes < 0 {
		return false
	}
	if !math.IsInf(lim.RIOPS, 1) && b.rOps < 0 {
		return false
	}
	if !math.IsInf(lim.WIOPS, 1) && b.wOps < 0 {
		return false
	}
	return true
}

// charge deducts the request's cost from the relevant balances.
func charge(b *bucket, lim cgroup.IOMax, r *device.Request) {
	if r.Op == device.Read {
		if !math.IsInf(lim.RBps, 1) {
			b.rBytes -= float64(r.Size)
		}
		if !math.IsInf(lim.RIOPS, 1) {
			b.rOps--
		}
		return
	}
	if !math.IsInf(lim.WBps, 1) {
		b.wBytes -= float64(r.Size)
	}
	if !math.IsInf(lim.WIOPS, 1) {
		b.wOps--
	}
}

// Submit throttles or forwards the request.
func (c *Controller) Submit(r *device.Request) {
	lim := c.limits(r.Cgroup)
	if lim.IsUnlimited() {
		c.next(r)
		return
	}
	b := c.bucketFor(r.Cgroup)
	c.refill(b, lim)
	if b.waiting.Len() == 0 && affordable(b, lim) {
		charge(b, lim, r)
		c.next(r)
		return
	}
	b.waiting.Push(r)
	c.Attr.HoldBegin(r.Blame)
	c.Obs.ThrottleBegin(r.Cgroup)
	c.sampleBucket(r.Cgroup, b, lim)
	c.armTimer(b, lim)
}

// sampleBucket publishes the group's token balances and queue depth.
func (c *Controller) sampleBucket(id int, b *bucket, lim cgroup.IOMax) {
	if c.Obs == nil {
		return
	}
	if !math.IsInf(lim.RBps, 1) {
		c.Obs.Sample("iomax.tokens.rbytes", id, b.rBytes)
	}
	if !math.IsInf(lim.WBps, 1) {
		c.Obs.Sample("iomax.tokens.wbytes", id, b.wBytes)
	}
	if !math.IsInf(lim.RIOPS, 1) {
		c.Obs.Sample("iomax.tokens.rops", id, b.rOps)
	}
	if !math.IsInf(lim.WIOPS, 1) {
		c.Obs.Sample("iomax.tokens.wops", id, b.wOps)
	}
	c.Obs.SetGauge(c.dev, id, "max.nr_queued", float64(b.waiting.Len()))
}

// armTimer schedules the next release attempt at the instant every
// deficit is repaid.
func (c *Controller) armTimer(b *bucket, lim cgroup.IOMax) {
	wait := c.deficitWait(b, lim)
	c.eng.Reschedule(&b.timer, c.eng.Now().Add(wait), c.releaseCB, b)
}

// deficitWait returns how long until all limited balances reach zero.
func (c *Controller) deficitWait(b *bucket, lim cgroup.IOMax) sim.Duration {
	var wait sim.Duration
	add := func(balance, rate float64) {
		if math.IsInf(rate, 1) || balance >= 0 {
			return
		}
		if w := sim.Duration(-balance / rate * float64(sim.Second)); w > wait {
			wait = w
		}
	}
	add(b.rBytes, lim.RBps)
	add(b.wBytes, lim.WBps)
	add(b.rOps, lim.RIOPS)
	add(b.wOps, lim.WIOPS)
	if wait < sim.Microsecond {
		wait = sim.Microsecond
	}
	return wait
}

// release forwards as many waiting requests as current tokens allow.
func (c *Controller) release(id int, b *bucket) {
	lim := c.limits(id)
	c.refill(b, lim)
	for b.waiting.Len() > 0 && affordable(b, lim) {
		r := b.waiting.Pop()
		charge(b, lim, r)
		c.Attr.ChargeHold(r.Blame, c.HoldLayer, r.Cgroup)
		c.Obs.ThrottleEnd(r.Cgroup)
		c.next(r)
	}
	c.sampleBucket(id, b, lim)
	if b.waiting.Len() > 0 {
		c.armTimer(b, lim)
	}
}

// DetachGroup drops the cgroup's token bucket after its traffic has
// drained (blk.GroupDetacher). A bucket with throttled requests still
// waiting is kept; any armed release timer is cancelled.
func (c *Controller) DetachGroup(cg int) {
	b, ok := c.groups[cg]
	if !ok || b.waiting.Len() > 0 {
		return
	}
	c.eng.Cancel(&b.timer)
	delete(c.groups, cg)
}

// Completed is a no-op: io.max throttles at submission only.
func (c *Controller) Completed(*device.Request) {}

// Overheads returns io.max's small hot-path cost (§V: slightly above
// none, visible in bandwidth-heavy scaling).
func (c *Controller) Overheads() blk.Overheads {
	return blk.Overheads{
		SubmitCPU:   140 * sim.Nanosecond,
		CompleteCPU: 40 * sim.Nanosecond,
		CyclesPerIO: 900,
	}
}
