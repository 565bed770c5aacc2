package obs

import (
	"sort"

	"isolbench/internal/sim"
)

// Point is one sampled (virtual time, value) pair.
type Point struct {
	At sim.Time
	V  float64
}

// Series is a bounded ring of samples for one controller-internal
// signal (vrate, hweight, queue depth, token balance, slice bytes).
// When full, the oldest point is overwritten so the series always
// holds the most recent window; evictions are counted.
type Series struct {
	Name   string
	Cgroup int // -1 for device/controller-global signals

	pts     []Point
	head    int
	n       int
	cap     int
	dropped uint64
}

// Len returns the number of retained points.
func (s *Series) Len() int { return s.n }

// Dropped returns how many points were evicted.
func (s *Series) Dropped() uint64 { return s.dropped }

// Points returns the retained points oldest-first.
func (s *Series) Points() []Point {
	out := make([]Point, 0, s.n)
	for i := 0; i < s.n; i++ {
		out = append(out, s.pts[(s.head+i)%len(s.pts)])
	}
	return out
}

func (s *Series) push(p Point) {
	if s.n < s.cap {
		if len(s.pts) < s.cap {
			s.pts = append(s.pts, p)
		} else {
			s.pts[(s.head+s.n)%s.cap] = p
		}
		s.n++
		return
	}
	s.pts[s.head] = p
	s.head = (s.head + 1) % s.cap
	s.dropped++
}

// seriesKey identifies a series without string concatenation on the
// sampling path.
type seriesKey struct {
	name string
	cg   int
}

// Sample appends one point to the named series. Use cg -1 for signals
// that are not per-cgroup (the global vrate, device GC debt). Sampling
// rides the controllers' own virtual-time tickers (io.cost's 100 ms
// QoS period, io.latency's 500 ms window, BFQ slice expiries), so an
// enabled observer adds no engine events of its own.
func (o *Observer) Sample(name string, cg int, v float64) {
	if o == nil {
		return
	}
	// Under Config.MaxCgroups, overflow cgroups share one series per
	// signal (the FoldedCgroup row): the interleaved values lose
	// per-group meaning but the series count stays bounded.
	k := seriesKey{name: name, cg: o.foldID(cg)}
	s, ok := o.series[k]
	if !ok {
		s = &Series{Name: name, Cgroup: cg, cap: o.cfg.SeriesCap}
		o.series[k] = s
		o.order = append(o.order, k)
	}
	s.push(Point{At: o.eng.Now(), V: v})
}

// Series returns the series for (name, cg), or nil.
func (o *Observer) Series(name string, cg int) *Series {
	if o == nil {
		return nil
	}
	return o.lookupSeries(seriesKey{name: name, cg: cg})
}

// lookupSeries returns the series for k, merged across the parts for
// a merged view.
func (o *Observer) lookupSeries(k seriesKey) *Series {
	if o.parts != nil {
		return o.mergedSeries(k)
	}
	return o.series[k]
}

// AllSeries returns every series sorted by (name, cgroup) so exports
// are reproducible regardless of the map-iteration order inside the
// controllers' sampling ticks.
func (o *Observer) AllSeries() []*Series {
	if o == nil {
		return nil
	}
	keys := append([]seriesKey(nil), o.order...)
	if o.parts != nil {
		keys = o.mergedSeriesKeys()
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].cg < keys[j].cg
	})
	out := make([]*Series, 0, len(keys))
	for _, k := range keys {
		out = append(out, o.lookupSeries(k))
	}
	return out
}
