package obs

import (
	"reflect"
	"testing"

	"isolbench/internal/device"
	"isolbench/internal/obs/attr"
	"isolbench/internal/sim"
)

// TestMergedViewMatchesSingle feeds one completion stream to a single
// observer and, split by cgroup, to two per-engine parts behind a
// merged view, with rings small enough to overflow. Every fleet-wide
// read of the view must equal the single observer's: spans (including
// same-instant completions of different cgroups, and their blame),
// drop counts, io.stat/io.pressure, series and incidents.
func TestMergedViewMatchesSingle(t *testing.T) {
	cfg := Config{SpanCap: 8, SeriesCap: 4}
	single := NewWithConfig(sim.NewEngine(), cfg)
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	parts := []*Observer{NewWithConfig(engs[0], cfg), NewWithConfig(engs[1], cfg)}
	view := NewMerged(sim.NewEngine(), cfg, parts)
	tr := attr.NewTracker(sim.NewEngine(), attr.Config{})

	for i := 0; i < 20; i++ {
		// Cgroups 1 and 3 live in part 0, 2 in part 1; every third
		// instant carries completions of all three.
		for _, cg := range []int{3, 1, 2} {
			if i%3 != 0 && cg != 1+i%2 {
				continue
			}
			at := sim.Time(1000 * (i + 1))
			r := &device.Request{ID: uint64(100*i + cg), Cgroup: cg, Op: device.Read, Size: 4096,
				Submit: at - 300, Queued: at - 200, Complete: at}
			if cg == 2 {
				r.Blame = tr.NewReq()
				tr.ChargeInterval(r.Blame, attr.LayerThrottle, 1, 200)
			}
			p := parts[(cg+1)%2]
			p.eng.RunUntil(at)
			single.eng.RunUntil(at)
			p.Completed("259:0", r)
			single.Completed("259:0", r)
			p.Sample("iocost.vrate", -1, float64(i))
			single.Sample("iocost.vrate", -1, float64(i))
		}
		if i == 10 {
			parts[1].eng.RunUntil(single.eng.Now())
			parts[1].RecordIncident(IncidentShaper, "b")
			single.RecordIncident(IncidentShaper, "b")
		}
	}
	view.eng.RunUntil(single.eng.Now())
	view.RecordIncident(IncidentInvariant, "end")
	single.RecordIncident(IncidentInvariant, "end")

	if got, want := view.Spans(), single.Spans(); !reflect.DeepEqual(got, want) {
		t.Fatalf("spans:\nview   %+v\nsingle %+v", got, want)
	}
	if got, want := view.SpansDropped(), single.SpansDropped(); got != want || want == 0 {
		t.Fatalf("SpansDropped = %d, single %d (want equal, nonzero)", got, want)
	}
	for _, cg := range single.Cgroups() {
		a, _ := view.StatFile(cg)
		b, _ := single.StatFile(cg)
		c, _ := view.PressureFile(cg)
		d, _ := single.PressureFile(cg)
		if a != b || c != d {
			t.Fatalf("cgroup %d files diverge:\n%s\n%s\nvs\n%s\n%s", cg, a, c, b, d)
		}
	}
	if got, want := view.Cgroups(), single.Cgroups(); !reflect.DeepEqual(got, want) {
		t.Fatalf("cgroups %v, single %v", got, want)
	}
	if got, want := view.Series("iocost.vrate", -1).Points(), single.Series("iocost.vrate", -1).Points(); !reflect.DeepEqual(got, want) {
		t.Fatalf("vrate points %v, single %v", got, want)
	}
	if got, want := view.SeriesDropped(), single.SeriesDropped(); got != want {
		t.Fatalf("SeriesDropped = %d, single %d", got, want)
	}
	if got, want := view.Incidents(), single.Incidents(); !reflect.DeepEqual(got, want) {
		t.Fatalf("incidents %v, single %v", got, want)
	}
}
