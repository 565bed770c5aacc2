package core

import (
	"fmt"
	"strings"
)

// InvariantError reports every conservation law a paranoid check found
// violated, one violation per line.
type InvariantError struct {
	Violations []string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("paranoid: %d invariant violation(s):\n  %s",
		len(e.Violations), strings.Join(e.Violations, "\n  "))
}

// snapshotParanoid records the io.stat byte total at the start of the
// measurement window; CheckInvariants compares the window delta against
// what the apps report.
func (c *Fleet) snapshotParanoid() {
	c.obsBase = c.obsBytesTotal()
	c.obsBaseSet = true
}

// obsBytesTotal sums rbytes+wbytes over every (cgroup, device) io.stat
// entry.
func (c *Fleet) obsBytesTotal() int64 {
	var total int64
	for _, cg := range c.Obs.Cgroups() {
		for i := range c.Devices {
			if st, ok := c.Obs.Stat(cg, DevName(i)); ok {
				total += st.RBytes + st.WBytes
			}
		}
	}
	return total
}

// CheckInvariants runs the full conservation suite across every layer
// of the cluster — workload, blk, device, engine clock, and the
// cross-layer byte flows — and returns an *InvariantError naming every
// violated law, or nil when all hold. It is called automatically at the
// end of RunPhase/RunTo in paranoid mode and is safe to call directly
// from tests.
func (c *Fleet) CheckInvariants() error {
	c.invariantChecks++
	var v []string

	// Churn teardown failures recorded by RemoveTenant are invariant
	// violations in their own right: a cgroup that refused removal
	// after a full drain means some layer still held its state.
	v = append(v, c.churnViolations...)

	// Layer 1: each app's and replayer's lifetime request accounting.
	for _, a := range c.Apps {
		v = append(v, a.CheckConservation()...)
	}
	for _, rp := range c.Replays {
		v = append(v, rp.CheckConservation()...)
	}

	// Layer 2: each queue's submitted = completed + in-path identity,
	// bounded by the total queue depth of the apps feeding it. Replayers
	// are open loop — they have no QD — but everything they put in the
	// path is still issued-and-unreaped right now, so their live
	// Outstanding() is a valid instantaneous bound.
	qdByDev := make([]int, len(c.Queues))
	for ai, a := range c.Apps {
		qdByDev[c.appDev[ai]] += a.Spec().QD
	}
	for ri, rp := range c.Replays {
		qdByDev[c.replayDev[ri]] += rp.Outstanding()
	}
	for i, q := range c.Queues {
		v = append(v, q.CheckConservation(qdByDev[i])...)
	}

	// Layer 3: each device's internal bounds.
	for _, d := range c.Devices {
		v = append(v, d.CheckInvariants()...)
	}

	// Attribution: every finished request's per-layer charges must sum
	// to its measured wait exactly (the tracker records violations in
	// strict mode, which paranoid+attr forces on).
	if c.Attr != nil {
		v = append(v, c.Attr.Violations()...)
	}

	// Engine clock: monotonic and never behind the open window.
	if now := c.Eng.Now(); now < c.measStart {
		v = append(v, fmt.Sprintf("engine clock %v is before the measurement window start %v",
			now, c.measStart))
	}

	// Cross-layer: device byte counters vs the io.stat view. The device
	// may legitimately run ahead: an attempt that timed out while in
	// service still completes inside the device (and counts bytes there)
	// but reaches io.stat only if a retry succeeds — so the gap is
	// bounded by the timeout count times the largest request. The bound
	// uses the fleet's monotonic maximum request size rather than a scan
	// of the live apps: a removed tenant's large requests still moved
	// device bytes, so the slack must remember them.
	for _, rp := range c.Replays {
		// Replay sizes come from the trace at runtime, not a spec; fold
		// them into the fleet's monotonic maximum as they appear.
		if s := rp.MaxReqSize(); s > c.maxReqSize {
			c.maxReqSize = s
		}
	}
	maxSize := c.maxReqSize
	if c.Obs != nil && (len(c.Apps) > 0 || len(c.Replays) > 0 || c.removals > 0) {
		for i, d := range c.Devices {
			st := d.Stats()
			devBytes := st.ReadBytes + st.WriteBytes
			var obsBytes int64
			for _, cg := range c.Obs.Cgroups() {
				if s, ok := c.Obs.Stat(cg, DevName(i)); ok {
					obsBytes += s.RBytes + s.WBytes
				}
			}
			slack := int64(c.Queues[i].Timeouts()) * maxSize
			if obsBytes > devBytes {
				v = append(v, fmt.Sprintf(
					"device %s: io.stat reports %d bytes but the device moved only %d",
					DevName(i), obsBytes, devBytes))
			} else if devBytes-obsBytes > slack {
				v = append(v, fmt.Sprintf(
					"device %s: %d device bytes unaccounted in io.stat (%d vs %d, slack %d)",
					DevName(i), devBytes-obsBytes, devBytes, obsBytes, slack))
			}
		}

		// Window flow: what the apps banked this measurement window must
		// match the io.stat delta up to the requests that straddle either
		// window edge (completed at the device but not yet reaped, or the
		// reverse at the start) — at most one queue depth per app, counted
		// on both edges. Tenants removed mid-window contribute through the
		// retired accumulators their teardown banked.
		if c.obsBaseSet {
			appBytes := c.retiredR + c.retiredW
			slack := c.retiredSlack
			for _, a := range c.Apps {
				r, w := a.WindowBytes()
				appBytes += r + w
				slack += 2 * int64(a.Spec().QD) * a.Spec().Size
			}
			for _, rp := range c.Replays {
				r, w := rp.WindowBytes()
				appBytes += r + w
				slack += rp.EdgeSlackBytes()
			}
			obsDelta := c.obsBytesTotal() - c.obsBase
			diff := appBytes - obsDelta
			if diff < 0 {
				diff = -diff
			}
			if diff > slack {
				v = append(v, fmt.Sprintf(
					"window bytes diverge: apps banked %d, io.stat moved %d (|diff| %d > slack %d)",
					appBytes, obsDelta, diff, slack))
			}
		}
	}

	if len(v) == 0 {
		return nil
	}
	return &InvariantError{Violations: v}
}
