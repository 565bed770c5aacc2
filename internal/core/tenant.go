package core

import (
	"fmt"

	"isolbench/internal/cgroup"
	"isolbench/internal/workload"
)

// TenantSpec describes one tenant to add to a fleet: a cgroup of its
// own plus the apps that run inside it. All of a tenant's apps feed the
// same device column — the one the fleet's placement policy picks, or
// the pinned one.
type TenantSpec struct {
	// Name is the tenant's cgroup name (must be unique under the
	// slice); "" derives "tenant-<seq>".
	Name string
	// Apps are the tenant's workload specs. Group is overwritten with
	// the tenant's cgroup; an empty app Name derives "<tenant>-a<i>".
	Apps []workload.Spec
	// Weight is the placement weight used by PlaceWeightedSpread
	// (<= 0 means 1). It does not configure any I/O knob.
	Weight float64
	// PinDevice forces the tenant onto Device instead of asking the
	// placement policy. (A bool+int pair rather than a sentinel so the
	// zero TenantSpec means "policy decides".)
	PinDevice bool
	Device    int
}

// Tenant is the live handle for one added tenant: its cgroup, its
// apps, and the device column it was placed on.
type Tenant struct {
	ID     int
	Name   string
	Group  *cgroup.Group
	Apps   []*workload.App
	Device int
	Weight float64

	removing bool
	removed  bool
}

// Removed reports whether the tenant's teardown has completed.
func (t *Tenant) Removed() bool { return t.removed }

// AddTenant creates a tenant: places it on a device column, creates its
// cgroup under the slice, and builds its apps. Safe mid-run — if the
// fleet has started, the new apps are armed immediately (app start
// times in the past clamp to now).
func (c *Fleet) AddTenant(spec TenantSpec) (*Tenant, error) {
	if len(spec.Apps) == 0 {
		return nil, fmt.Errorf("core: tenant %q has no apps", spec.Name)
	}
	w := spec.Weight
	if w <= 0 {
		w = 1
	}
	dev, err := c.placeTenant(spec)
	if err != nil {
		return nil, err
	}
	name := spec.Name
	if name == "" {
		name = fmt.Sprintf("tenant-%d", c.tenantSeq)
	}
	g, err := c.NewGroup(name)
	if err != nil {
		return nil, err
	}
	t := &Tenant{ID: c.tenantSeq, Name: name, Group: g, Device: dev, Weight: w}
	c.tenantSeq++
	for i, as := range spec.Apps {
		as.Group = g
		if as.Name == "" {
			as.Name = fmt.Sprintf("%s-a%d", name, i)
		}
		app, err := c.AddApp(as, dev)
		if err != nil {
			return nil, fmt.Errorf("core: tenant %s app %d: %w", name, i, err)
		}
		t.Apps = append(t.Apps, app)
		if c.started {
			app.Start()
		}
	}
	c.devTenants[dev]++
	c.devLoad[dev] += w
	c.Tenants = append(c.Tenants, t)
	return t, nil
}

// placeTenant picks the device column for a new tenant.
func (c *Fleet) placeTenant(spec TenantSpec) (int, error) {
	n := len(c.Queues)
	if spec.PinDevice {
		if spec.Device < 0 || spec.Device >= n {
			return 0, fmt.Errorf("core: pinned device index %d out of range [0,%d)", spec.Device, n)
		}
		return spec.Device, nil
	}
	switch c.Opts.Placement {
	case PlacePacked:
		if c.Opts.PackLimit <= 0 {
			return 0, nil
		}
		for i := 0; i < n; i++ {
			if c.devTenants[i] < c.Opts.PackLimit {
				return i, nil
			}
		}
		return 0, fmt.Errorf("core: every device already holds PackLimit=%d tenants", c.Opts.PackLimit)
	case PlaceWeightedSpread:
		best := 0
		for i := 1; i < n; i++ {
			if c.devLoad[i] < c.devLoad[best] {
				best = i
			}
		}
		return best, nil
	default: // PlaceRoundRobin
		d := c.rrNext % n
		c.rrNext++
		return d, nil
	}
}

// RemoveTenant tears a tenant down mid-run: each app is quiesced, and
// once every outstanding request has drained, the tenant's processes
// detach, its scheduler/controller state is dropped from its device
// column, and its cgroup is removed. done (may be nil) fires inside the
// engine when teardown completes, with any cgroup-removal error.
//
// The drain is what keeps the paranoid checker green across churn:
// nothing is detached while the tenant still owns in-flight requests,
// and the tenant's window-banked bytes move into the fleet's retired
// accumulators so the cross-layer byte-flow check stays exact.
func (c *Fleet) RemoveTenant(t *Tenant, done func(error)) {
	if t.removing || t.removed {
		if done != nil {
			done(fmt.Errorf("core: tenant %s already removed", t.Name))
		}
		return
	}
	t.removing = true
	remaining := len(t.Apps)
	if remaining == 0 {
		c.finishRemove(t, done)
		return
	}
	for _, a := range t.Apps {
		a.Quiesce(func() {
			remaining--
			if remaining == 0 {
				c.finishRemove(t, done)
			}
		})
	}
}

// Removals reports how many tenants have completed teardown.
func (c *Fleet) Removals() int { return c.removals }

// finishRemove runs once every app of the tenant has drained. The
// scheduler/controller state on the tenant's device column is dropped
// immediately — it is shard-local, and the column's later events must
// not see the departed group. The rest of the teardown touches
// fleet-global state (rosters, the cgroup tree, retired accumulators):
// inside a shard window that half is deferred to the next barrier,
// where the coordinator applies drained tenants in (drain time, ID)
// order; outside a window (single-engine runtime, or a teardown
// triggered by a barrier event) it runs in place.
func (c *Fleet) finishRemove(t *Tenant, done func(error)) {
	c.Queues[t.Device].DetachGroup(t.Group.ID())
	// The shapers of the tenant's shard drop its per-group memory
	// (signal snapshots, applied caps, controller targets) now, with the
	// rest of its shard-local state; other shards' shapers never saw its
	// traffic and forget it at the barrier.
	c.forgetShaped(t, true)
	if c.winActive {
		at := c.EngFor(t.Device).Now()
		c.retireMu.Lock()
		c.pendingRetire = append(c.pendingRetire, pendingRetire{at: at, t: t, done: done})
		c.retireMu.Unlock()
		return
	}
	c.finishRemoveGlobal(t, done)
}

// forgetShaped drops the removed tenant's group from the shapers of
// the tenant's shard (own) or of every other shard (!own).
func (c *Fleet) forgetShaped(t *Tenant, own bool) {
	for i, sh := range c.Shapers {
		if (c.colShard[i] == c.colShard[t.Device]) == own {
			sh.Forget(t.Group.ID())
		}
	}
}

// finishRemoveGlobal is the fleet-global half of tenant teardown. It
// must run with no shard window active.
func (c *Fleet) finishRemoveGlobal(t *Tenant, done func(error)) {
	// Bank the apps' window bytes (and the per-app window-edge slack)
	// before they leave the roster, then detach their processes so the
	// cgroup becomes removable.
	drop := make(map[*workload.App]bool, len(t.Apps))
	for _, a := range t.Apps {
		r, w := a.WindowBytes()
		c.retiredR += r
		c.retiredW += w
		c.retiredSlack += 2 * int64(a.Spec().QD) * a.Spec().Size
		t.Group.DetachProc()
		drop[a] = true
	}

	// Compact the fleet rosters in place, preserving order.
	apps := c.Apps[:0]
	devs := c.appDev[:0]
	for i, a := range c.Apps {
		if drop[a] {
			continue
		}
		apps = append(apps, a)
		devs = append(devs, c.appDev[i])
	}
	for i := len(apps); i < len(c.Apps); i++ {
		c.Apps[i] = nil // release retired apps to the GC
	}
	c.Apps = apps
	c.appDev = devs

	// Scheduler/controller state was already detached at drain time
	// (finishRemove); here the cgroup itself goes away.
	c.forgetShaped(t, false)
	delete(c.cgShard, t.Group.ID())
	err := t.Group.Remove()
	if err != nil {
		c.churnViolations = append(c.churnViolations,
			fmt.Sprintf("tenant %s: cgroup removal failed after drain: %v", t.Name, err))
	}
	for i, g := range c.Groups {
		if g == t.Group {
			c.Groups = append(c.Groups[:i], c.Groups[i+1:]...)
			break
		}
	}
	for i, tn := range c.Tenants {
		if tn == t {
			c.Tenants = append(c.Tenants[:i], c.Tenants[i+1:]...)
			break
		}
	}
	c.devTenants[t.Device]--
	c.devLoad[t.Device] -= t.Weight
	t.removed = true
	c.removals++
	if done != nil {
		done(err)
	}
}
