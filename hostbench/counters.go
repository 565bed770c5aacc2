package main

import (
	"isolbench/internal/core"
	"isolbench/internal/sim"
)

// counters are the layers' public counters read from outside the
// program after a cell has run. Simulated counts are deterministic per
// seed, so two commits can be compared on them exactly.
type counters struct {
	events      uint64 // sim: events executed, all engines
	pendingPeak int    // sim: largest summed heap depth seen between run slices

	devIOs      uint64 // device: reads + writes completed
	gcEvents    uint64
	pipeBusyNs  float64 // device: simulated pipe busy time, summed over devices
	devSpanNs   float64 // device: simulated run time x devices (pipe_busy_frac's base)
	faultErrors uint64
	faultDrops  uint64

	blkSubmitted, blkCompleted, blkRetries, blkTimeouts, blkFailures uint64

	// host: window CPU model outputs, weighted by window completions.
	cpuUtilIOs, cyclesIOs, ctxIOs float64
	hostIOs                       uint64

	appIOs, appErrors, replayRetries uint64

	tenantAdds, tenantRemovals int
	shards                     int // largest effective engine count of any cell

	spansDropped uint64
	incidents    int
}

// samplePending records the summed pending-event depth of the engines.
func (c *counters) samplePending(es []*sim.Engine) {
	n := 0
	for _, e := range es {
		n += e.Pending()
	}
	c.pendingPeak = max(c.pendingPeak, n)
}

// collect reads every layer's counters from a fleet that has finished
// its run. span is the simulated time the fleet ran.
func (c *counters) collect(f *core.Fleet, es []*sim.Engine, out *cellOut, tenantAdds int, span sim.Duration) {
	res := out.res
	for _, e := range es {
		c.events += e.Processed()
	}
	for _, d := range f.Devices {
		s := d.Stats()
		c.devIOs += s.ReadsCompleted + s.WritesCompleted
		c.gcEvents += s.GCEvents
		c.pipeBusyNs += float64(s.PipeBusy)
		c.devSpanNs += float64(span)
		c.faultErrors += s.FaultErrors
		c.faultDrops += s.FaultDrops
	}
	for _, q := range f.Queues {
		c.blkSubmitted += q.Submitted()
		c.blkCompleted += q.Completed()
		c.blkRetries += q.Retries()
		c.blkTimeouts += q.Timeouts()
		c.blkFailures += q.Failures()
	}
	w := float64(res.IOs)
	c.cpuUtilIOs += res.CPUUtil * w
	c.cyclesIOs += res.CyclesPerIO * w
	c.ctxIOs += res.CtxPerIO * w
	c.hostIOs += res.IOs
	for _, a := range res.Apps {
		c.appIOs += a.IOs
		c.appErrors += a.Errors
	}
	for _, s := range out.replayStats {
		c.appIOs += s.IOs
		c.appErrors += s.Errors
		c.replayRetries += s.Retries
	}
	c.tenantAdds += tenantAdds
	c.tenantRemovals += f.Removals()
	c.shards = max(c.shards, f.Shards(), 1)
	if f.Obs != nil {
		c.spansDropped += f.Obs.SpansDropped()
		c.incidents += len(f.Obs.Incidents())
	}
}

// add folds another cell's counters in.
func (c *counters) add(o counters) {
	c.events += o.events
	c.pendingPeak = max(c.pendingPeak, o.pendingPeak)
	c.devIOs += o.devIOs
	c.gcEvents += o.gcEvents
	c.pipeBusyNs += o.pipeBusyNs
	c.devSpanNs += o.devSpanNs
	c.faultErrors += o.faultErrors
	c.faultDrops += o.faultDrops
	c.blkSubmitted += o.blkSubmitted
	c.blkCompleted += o.blkCompleted
	c.blkRetries += o.blkRetries
	c.blkTimeouts += o.blkTimeouts
	c.blkFailures += o.blkFailures
	c.cpuUtilIOs += o.cpuUtilIOs
	c.cyclesIOs += o.cyclesIOs
	c.ctxIOs += o.ctxIOs
	c.hostIOs += o.hostIOs
	c.appIOs += o.appIOs
	c.appErrors += o.appErrors
	c.replayRetries += o.replayRetries
	c.tenantAdds += o.tenantAdds
	c.tenantRemovals += o.tenantRemovals
	c.shards = max(c.shards, o.shards)
	c.spansDropped += o.spansDropped
	c.incidents += o.incidents
}
