package main

import (
	"fmt"
	"math"
	"strings"

	"isolbench/internal/core"
	"isolbench/internal/metrics"
	"isolbench/internal/workload"
)

// digest hashes a cell's simulated statistics: per-app IOs, bytes,
// errors, P50 and P99, and Jain's index over the groups' bandwidth.
// The simulator is deterministic per seed, so the digest must repeat
// exactly on every repetition and on every commit that does not mean
// to change simulated behaviour.
func digest(res core.Result, replays []workload.Stats) string {
	var b strings.Builder
	line := func(s workload.Stats) {
		fmt.Fprintf(&b, "%s ios=%d r=%d w=%d err=%d retry=%d p50=%d p99=%d\n",
			s.Name, s.IOs, s.ReadBytes, s.WriteBytes, s.Errors, s.Retries, s.P50Ns, s.P99Ns)
	}
	for _, a := range res.Apps {
		line(a)
	}
	for _, r := range replays {
		line(r)
	}
	bws := make([]float64, len(res.Groups))
	for i, g := range res.Groups {
		bws[i] = g.BW
	}
	fmt.Fprintf(&b, "span=%d jain=%.9f\n", res.Span, metrics.JainIndex(bws))
	return hashHex([]byte(b.String()))
}

// identities checks cheap counter laws across layers:
//   - per queue, device completions equal blk completions minus the
//     requests failed up to the application;
//   - the requests still in the blk path are bounded by what the
//     fleet's apps and replayers hold outstanding;
//   - without churn (removed tenants leave the roster) or replay, the
//     apps' window completions match the device's window completions
//     up to the requests in flight at either edge.
func identities(f *core.Fleet, out *cellOut) []string {
	var v []string
	var inPath uint64
	for i, q := range f.Queues {
		s := f.Devices[i].Stats()
		dev := s.ReadsCompleted + s.WritesCompleted
		if dev != q.Completed()-q.Failures() {
			v = append(v, fmt.Sprintf("device %d: %d completions != blk completed %d - failed %d",
				i, dev, q.Completed(), q.Failures()))
		}
		inPath += q.Submitted() - q.Completed()
	}
	held, qd := 0, 0
	for _, a := range f.Apps {
		held += a.Outstanding()
		qd += a.Spec().QD
	}
	for _, rp := range f.Replays {
		held += rp.Outstanding()
	}
	if inPath > uint64(held) {
		v = append(v, fmt.Sprintf("%d requests in the blk path but apps hold only %d", inPath, held))
	}
	if f.Removals() == 0 && len(f.Replays) == 0 {
		window := out.res.IOs
		devWindow := out.counters.devIOs - out.windowStartIOs
		if diff := int64(window) - int64(devWindow); diff > int64(qd) || -diff > int64(qd) {
			v = append(v, fmt.Sprintf("apps completed %d in the window, devices %d (slack %d)",
				window, devWindow, qd))
		}
	}
	return v
}

// anchor is one paper number the simulator reproduces. The band
// around it is wide enough to hold the value EXPERIMENTS.md records
// for the simulator, with margin for run length and seed.
type anchor struct {
	name          string
	unit          string
	paper, lo, hi float64
	// cells are the cells the value reads; the first is blamed when
	// the value leaves the band.
	cells []string
	value func(cells []*cellOut) float64
}

// bwAnchor is a knob's Fig. 4 single-SSD saturation bandwidth.
func bwAnchor(k string, paper, lo, hi float64) anchor {
	return anchor{"fig4." + k + ".bw", "GiB/s", paper, lo, hi, []string{"fig4/" + k},
		func(cs []*cellOut) float64 { return cs[0].bwGiBs }}
}

// qd1Anchor is a knob's mean QD1 read latency (Fig. 3, one app).
func qd1Anchor(k string, paper, lo, hi float64) anchor {
	return anchor{"fig3." + k + ".qd1_mean", "us", paper, lo, hi, []string{"fig3/" + k},
		func(cs []*cellOut) float64 { return cs[0].meanUs }}
}

// p99OverNoneAnchor is a knob's QD1 P99 overhead over none's, in
// percent (Fig. 3, one app).
func p99OverNoneAnchor(k string, paper, lo, hi float64) anchor {
	return anchor{"fig3." + k + ".p99_over_none", "%", paper, lo, hi, []string{"fig3/" + k, "fig3/none"},
		func(cs []*cellOut) float64 { return (cs[0].p99us/cs[1].p99us - 1) * 100 }}
}

// anchors lists every paper anchor: the Fig. 4 single-SSD peaks and
// Fig. 3 QD1 overheads (DESIGN.md "Calibration anchors"; simulator
// values in EXPERIMENTS.md), and the 980 PRO's ≈80 µs QD1 latency
// (DESIGN.md substitution table). Workloads without a Fig. 4 cell
// carry only the QD1 latency anchor of their own knobs.
var anchors = []anchor{
	bwAnchor("none", 2.94, 2.75, 3.10),
	bwAnchor("mq-deadline", 1.81, 1.70, 1.95),
	bwAnchor("bfq", 0.69, 0.64, 0.78),
	bwAnchor("io.max", 2.9, 2.75, 3.10),
	bwAnchor("io.latency", 2.9, 2.75, 3.10),
	bwAnchor("io.cost", 2.9, 2.75, 3.10),
	qd1Anchor("none", 80, 70, 95),
	qd1Anchor("io.cost", 80, 70, 95),
	qd1Anchor("adaptive", 80, 70, 95),
	p99OverNoneAnchor("mq-deadline", 7.55, 4, 11),
	p99OverNoneAnchor("bfq", 18.87, 10, 24),
}

// anchorResult is one anchor evaluated on one repetition.
type anchorResult struct {
	anchor
	sim    float64
	errPct float64
}

// evalAnchors evaluates every anchor whose cells all ran cleanly in
// this repetition, and blames the anchor's first cell for a value out
// of band.
func evalAnchors(list []anchor, cells []*cellOut) []anchorResult {
	byName := make(map[string]*cellOut, len(cells))
	for _, c := range cells {
		byName[c.name] = c
	}
	var rs []anchorResult
next:
	for _, a := range list {
		var cs []*cellOut
		for _, n := range a.cells {
			c, ok := byName[n]
			if !ok || len(c.problems) > 0 {
				continue next
			}
			cs = append(cs, c)
		}
		v := a.value(cs)
		if v < a.lo || v > a.hi {
			cs[0].problems = append(cs[0].problems,
				fmt.Sprintf("anchor %s = %.4g %s outside [%g, %g]", a.name, v, a.unit, a.lo, a.hi))
		}
		rs = append(rs, anchorResult{anchor: a, sim: v, errPct: math.Abs(v-a.paper) / a.paper * 100})
	}
	return rs
}

// checkDigests compares each cell's digest with the one the first
// repetition produced; a different digest under the same seed means
// the simulation is not deterministic, and fails the cell.
func checkDigests(want map[string]string, cells []*cellOut) {
	for _, c := range cells {
		if c.digest == "" {
			continue
		}
		w, ok := want[c.name]
		if !ok {
			want[c.name] = c.digest
			continue
		}
		if c.digest != w {
			c.problems = append(c.problems, fmt.Sprintf("digest %s differs from the first repetition's %s", c.digest, w))
		}
	}
}
