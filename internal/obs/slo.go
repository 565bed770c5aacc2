package obs

import (
	"fmt"

	"isolbench/internal/sim"
)

// SLOConfig declares a per-cgroup latency objective monitored with
// Google-SRE-style multi-window burn-rate alerting: the objective is
// "at most Budget of requests exceed P99", and an incident fires when
// the error-budget burn rate — (fraction of slow requests)/Budget —
// exceeds Burn over BOTH a fast and a slow window. The fast window
// makes detection quick; the slow window filters one-off blips. Once
// fired, the alert re-arms only after both burn rates fall below
// Burn/2 (hysteresis), so a sustained violation produces one incident
// per episode, not one per completion.
type SLOConfig struct {
	P99        sim.Duration // latency objective (required, > 0)
	Budget     float64      // allowed slow fraction (0 = 1%)
	Burn       float64      // burn-rate threshold (0 = 14x)
	FastWindow sim.Duration // short detection window (0 = 100ms)
	SlowWindow sim.Duration // long confirmation window (0 = 1s)
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Budget <= 0 {
		c.Budget = 0.01
	}
	if c.Burn <= 0 {
		c.Burn = 14
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 100 * sim.Millisecond
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = sim.Second
	}
	return c
}

// sloBuckets is the number of sub-buckets per window: rolling counts
// advance in window/sloBuckets steps, bounding both memory and the
// error of the windowed fractions.
const sloBuckets = 10

// sloWindow is one bucketed rolling window of good/bad counts.
type sloWindow struct {
	width   sim.Duration // bucket width
	cur     int64        // absolute index of the bucket holding "now"
	good    [sloBuckets]uint64
	bad     [sloBuckets]uint64
	sumGood uint64
	sumBad  uint64
}

func (w *sloWindow) init(span sim.Duration) {
	w.width = span / sloBuckets
	if w.width <= 0 {
		w.width = 1
	}
}

// advance rotates the ring so the bucket for time t is current,
// zeroing any buckets skipped over.
func (w *sloWindow) advance(t sim.Time) {
	idx := int64(t) / int64(w.width)
	if idx <= w.cur {
		return
	}
	steps := idx - w.cur
	if steps > sloBuckets {
		steps = sloBuckets
	}
	for i := int64(0); i < steps; i++ {
		slot := int((w.cur + 1 + i) % sloBuckets)
		w.sumGood -= w.good[slot]
		w.sumBad -= w.bad[slot]
		w.good[slot] = 0
		w.bad[slot] = 0
	}
	w.cur = idx
}

func (w *sloWindow) record(t sim.Time, bad bool) {
	w.advance(t)
	slot := int(w.cur % sloBuckets)
	if bad {
		w.bad[slot]++
		w.sumBad++
	} else {
		w.good[slot]++
		w.sumGood++
	}
}

// badFrac returns the windowed fraction of slow requests.
func (w *sloWindow) badFrac() float64 {
	n := w.sumGood + w.sumBad
	if n == 0 {
		return 0
	}
	return float64(w.sumBad) / float64(n)
}

// sloGroup is the monitor state for one cgroup.
type sloGroup struct {
	fast   sloWindow
	slow   sloWindow
	firing bool
	fired  int // incidents emitted for this cgroup
}

// sloMonitor evaluates the SLO on every completion. It is driven
// entirely by observe() calls with virtual timestamps — it schedules
// no engine events and draws no randomness, preserving the observer's
// bit-identical-on/off property.
type sloMonitor struct {
	cfg    SLOConfig
	groups map[int]*sloGroup
}

// EnableSLO arms burn-rate monitoring with the given objective. It is
// a no-op on a nil observer or when cfg.P99 <= 0.
func (o *Observer) EnableSLO(cfg SLOConfig) {
	if o == nil || cfg.P99 <= 0 {
		return
	}
	o.slo = &sloMonitor{cfg: cfg.withDefaults(), groups: make(map[int]*sloGroup)}
}

// SLO returns the active objective (ok=false when monitoring is off).
func (o *Observer) SLO() (SLOConfig, bool) {
	if o == nil || o.slo == nil {
		return SLOConfig{}, false
	}
	return o.slo.cfg, true
}

// SLOBurn exposes a cgroup's current windowed burn rates and firing
// state (tests and summaries).
func (o *Observer) SLOBurn(cg int) (fast, slow float64, firing bool) {
	if o == nil {
		return 0, 0, false
	}
	if o = o.owner(cg); o.slo == nil {
		return 0, 0, false
	}
	g, ok := o.slo.groups[cg]
	if !ok {
		return 0, 0, false
	}
	return g.fast.badFrac() / o.slo.cfg.Budget, g.slow.badFrac() / o.slo.cfg.Budget, g.firing
}

// SLOFired returns how many burn-rate incidents have fired for the
// cgroup so far (0 when monitoring is off or the cgroup is unknown).
// Hysteresis makes this an episode count, so deltas between two reads
// count the episodes that started in between.
func (o *Observer) SLOFired(cg int) int {
	if o == nil {
		return 0
	}
	if o = o.owner(cg); o.slo == nil {
		return 0
	}
	g, ok := o.slo.groups[cg]
	if !ok {
		return 0
	}
	return g.fired
}

// observeSLO feeds one completion into the monitor and fires or
// re-arms the alert for the cgroup.
func (o *Observer) observeSLO(cg int, lat sim.Duration) {
	m := o.slo
	g, ok := m.groups[cg]
	if !ok {
		g = &sloGroup{}
		g.fast.init(m.cfg.FastWindow)
		g.slow.init(m.cfg.SlowWindow)
		m.groups[cg] = g
	}
	now := o.eng.Now()
	bad := lat > m.cfg.P99
	g.fast.record(now, bad)
	g.slow.record(now, bad)
	fast := g.fast.badFrac() / m.cfg.Budget
	slow := g.slow.badFrac() / m.cfg.Budget
	switch {
	case !g.firing && fast >= m.cfg.Burn && slow >= m.cfg.Burn:
		g.firing = true
		g.fired++
		detail := fmt.Sprintf("%s p99>%v burn fast=%.1fx slow=%.1fx",
			o.nameOf(cg), m.cfg.P99, fast, slow)
		if o.Attr != nil {
			if l, share, ok := o.Attr.TopLayer(cg); ok {
				detail += fmt.Sprintf(" blame=%s %.0f%%", l, share*100)
			}
		}
		o.RecordIncident(IncidentSLO, detail)
	case g.firing && fast < m.cfg.Burn/2 && slow < m.cfg.Burn/2:
		g.firing = false
	}
}
