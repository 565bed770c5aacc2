package obs

import (
	"sort"

	"isolbench/internal/sim"
)

// NewMerged returns a read-only view over per-shard observers. Each
// part observes the device columns of one shard engine, on that
// engine's clock, and every cgroup's state lives in exactly one part
// (the fleet binds a cgroup to one shard), so per-cgroup reads
// (io.stat, io.pressure, stage histograms, SLO state) route to the
// owning part and nothing per-cgroup is ever merged. Fleet-wide reads
// merge: spans in completion order (newest SpanCap kept, drops
// summed), series and incidents by (time, shard), device and cgroup
// listings as sorted unions.
//
// The view records only its own incidents, stamped on eng (the
// coordinator's clock); the hooks that feed an observer must be given
// the parts, never the view. Reads are safe only while no shard runs.
func NewMerged(eng *sim.Engine, cfg Config, parts []*Observer) *Observer {
	o := NewWithConfig(eng, cfg)
	o.parts = parts
	return o
}

// owner returns the observer holding cgroup cg's state: o itself, or
// for a merged view the part the cgroup's traffic was recorded in (the
// view, which holds no cgroup state, when there is none).
func (o *Observer) owner(cg int) *Observer {
	for _, p := range o.parts {
		if _, ok := p.groups[cg]; ok {
			return p
		}
	}
	return o
}

// mergedIncidents orders the parts' incidents and the view's own by
// time. The sort is stable over parts in shard order followed by the
// view, so same-instant incidents keep (shard, record) order and the
// coordinator's come last, as they do on the single engine, where they
// are recorded after the instant's events ran.
func (o *Observer) mergedIncidents() []Incident {
	var out []Incident
	for _, p := range o.parts {
		out = append(out, p.incidents...)
	}
	out = append(out, o.incidents...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// mergedDevices is the sorted union of the parts' device names.
func (o *Observer) mergedDevices() []string {
	var out []string
	for _, p := range o.parts {
		out = append(out, p.devsO...)
	}
	sort.Strings(out)
	return out
}

// mergedSeriesKeys lists every series key any part holds, once.
func (o *Observer) mergedSeriesKeys() []seriesKey {
	seen := make(map[seriesKey]bool)
	var keys []seriesKey
	for _, p := range o.parts {
		for _, k := range p.order {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// mergedSeries returns the series for k across the parts: the part's
// own series when only one part sampled it, otherwise a fresh series
// holding the newest SeriesCap points of all parts in (time, shard)
// order, with every point not kept counted as dropped.
func (o *Observer) mergedSeries(k seriesKey) *Series {
	var found []*Series
	for _, p := range o.parts {
		if s := p.series[k]; s != nil {
			found = append(found, s)
		}
	}
	switch len(found) {
	case 0:
		return nil
	case 1:
		return found[0]
	}
	var pts []Point
	var total uint64
	for _, s := range found {
		pts = append(pts, s.Points()...)
		total += uint64(s.n) + s.dropped
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].At < pts[j].At })
	if n := len(pts) - o.cfg.SeriesCap; n > 0 {
		pts = pts[n:]
	}
	return &Series{
		Name: found[0].Name, Cgroup: found[0].Cgroup,
		pts: pts, n: len(pts), cap: o.cfg.SeriesCap,
		dropped: total - uint64(len(pts)),
	}
}
