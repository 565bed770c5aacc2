package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// runOnce runs one repetition of a workload on a fresh bench.
func runOnce(t *testing.T, workload string, seed uint64) *repOut {
	t.Helper()
	b := &bench{cells: func() []cell { return workloads[workload](seed) }, digests: map[string]string{}}
	r := b.rep()
	if b.failed != 0 {
		t.Fatalf("%s seed %d: %d cells failed: %v", workload, seed, b.failed, b.problems)
	}
	return r
}

func deterministic(r *repOut) (events, ios uint64, anchorErr float64, digests []string) {
	for _, a := range r.anchors {
		anchorErr += a.errPct
	}
	for _, c := range r.cells {
		digests = append(digests, c.name+"="+c.digest)
	}
	return r.counters.events, r.counters.devIOs, anchorErr, digests
}

// The deterministic metrics must repeat exactly under the same seed:
// they are what two commits are compared on without host noise.
func TestDeterministicMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			e1, n1, a1, d1 := deterministic(runOnce(t, w, 7))
			e2, n2, a2, d2 := deterministic(runOnce(t, w, 7))
			if e1 != e2 || n1 != n2 || a1 != a2 {
				t.Errorf("events %d/%d, ios %d/%d, anchor error %v/%v differ between same-seed runs", e1, e2, n1, n2, a1, a2)
			}
			if strings.Join(d1, " ") != strings.Join(d2, " ") {
				t.Errorf("digests differ between same-seed runs:\n%v\n%v", d1, d2)
			}
			if e1 == 0 || n1 == 0 {
				t.Errorf("no events (%d) or device completions (%d)", e1, n1)
			}
		})
	}
}

// The churning fleet is byte-identical at 1 and 2 shards, so its
// digest and counts must not depend on the shard count.
func TestChurnDigestShardInvariant(t *testing.T) {
	one := runCell(churnCell(3, 1))
	two := runCell(churnCell(3, 2))
	for _, c := range []*cellOut{one, two} {
		if len(c.problems) > 0 {
			t.Fatalf("%s: %v", c.name, c.problems)
		}
	}
	if one.digest != two.digest {
		t.Errorf("digest %s at 1 shard, %s at 2", one.digest, two.digest)
	}
	if one.counters.devIOs != two.counters.devIOs || one.counters.tenantRemovals != two.counters.tenantRemovals {
		t.Errorf("device IOs %d/%d, removals %d/%d differ across shard counts",
			one.counters.devIOs, two.counters.devIOs, one.counters.tenantRemovals, two.counters.tenantRemovals)
	}
	if one.counters.shards != 1 || two.counters.shards != 2 {
		t.Errorf("effective shards %d and %d, want 1 and 2", one.counters.shards, two.counters.shards)
	}
	if one.counters.tenantRemovals == 0 {
		t.Error("no tenant was removed: the churn did not run")
	}
}

// passingCells are cell outputs whose values sit inside every anchor
// band.
func passingCells() []*cellOut {
	cs := []*cellOut{
		{name: "fig4/none", bwGiBs: 2.93},
		{name: "fig4/mq-deadline", bwGiBs: 1.82},
		{name: "fig4/bfq", bwGiBs: 0.72},
		{name: "fig4/io.max", bwGiBs: 2.93},
		{name: "fig4/io.latency", bwGiBs: 2.93},
		{name: "fig4/io.cost", bwGiBs: 2.93},
		{name: "fig3/none", meanUs: 86, p99us: 100},
		{name: "fig3/mq-deadline", meanUs: 86, p99us: 107},
		{name: "fig3/bfq", meanUs: 86, p99us: 115},
		{name: "fig3/io.cost", meanUs: 86, p99us: 101},
		{name: "fig3/adaptive", meanUs: 86, p99us: 100},
	}
	for _, c := range cs {
		c.digest = "digest of " + c.name
	}
	return cs
}

func failedCells(b *bench, cells []*cellOut) []string {
	var failed []string
	for _, c := range cells {
		b.tally(c.name, c.problems)
		if len(c.problems) > 0 {
			failed = append(failed, c.name)
		}
	}
	return failed
}

func TestPerturbedAnchorFailsCell(t *testing.T) {
	cells := passingCells()
	if rs := evalAnchors(anchors, cells); len(rs) != len(anchors) {
		t.Fatalf("%d of %d anchors evaluated", len(rs), len(anchors))
	}
	if f := failedCells(&bench{}, cells); len(f) != 0 {
		t.Fatalf("in-band cells failed: %v", f)
	}

	cells = passingCells()
	for _, c := range cells {
		if c.name == "fig4/bfq" {
			c.bwGiBs = 1.5 // BFQ at half of none's bandwidth: not the paper
		}
	}
	evalAnchors(anchors, cells)
	b := &bench{}
	if f := failedCells(b, cells); len(f) != 1 || f[0] != "fig4/bfq" || b.failed != 1 {
		t.Fatalf("failed cells %v (count %d), want only fig4/bfq", f, b.failed)
	}
}

func TestPerturbedDigestFailsCell(t *testing.T) {
	want := map[string]string{}
	checkDigests(want, passingCells())
	cells := passingCells()
	cells[0].digest = "0000000000000000"
	checkDigests(want, cells)
	b := &bench{}
	if f := failedCells(b, cells); len(f) != 1 || f[0] != cells[0].name || b.failed != 1 {
		t.Fatalf("failed cells %v (count %d), want only %s", f, b.failed, cells[0].name)
	}
}

// BENCHMARK.json must name exactly the metrics hostbench prints, with
// the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, hostbench has %v", names, workloadNames)
	}
	rep := &repOut{wall: time.Second}
	check := func(kind string, want []struct{ Name, Unit string }, got []metric) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, hostbench prints %d", kind, len(want), len(got))
		}
		for i := range min(len(want), len(got)) {
			if want[i].Name != got[i].name || want[i].Unit != got[i].unit {
				t.Errorf("%s #%d: BENCHMARK.json %s [%s], hostbench %s [%s]",
					kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd([]*repOut{rep}, []time.Duration{time.Millisecond}, []time.Duration{refNominal}, 1, 1))
	check("per_layer", spec.PerLayer, perLayer([]*repOut{rep}, []*repOut{rep}, nil, []time.Duration{refNominal}))
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"isolbench/internal/sim.(*Engine).pop":                    "sim",
		"isolbench/internal/iosched/bfq.(*Scheduler).Dispatch":    "iosched",
		"isolbench/internal/ioctl/iocost.(*Controller).refresh":   "ioctl",
		"isolbench/internal/obs/attr.(*Ledger).Extend":            "attr",
		"isolbench/internal/workload/gen.(*shapeSource).Next":     "trace",
		"isolbench/internal/workload.(*App).reapBatch":            "workload",
		"isolbench/internal/core.(*Fleet).runWindows.func1":       "core",
		"isolbench/internal/runpool.MapCtx[...]":                  "other",
		"runtime.mallocgc":                                        "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":            "runtime",
		"runtime/pprof.(*profMap).lookup":                         "other",
		"main.runCell":                                            "other",
		"slices.pdqsortCmpFunc[go.shape.struct { isolbench/x }]":  "other",
		"isolbench/internal/metrics.(*Histogram).Record":          "metrics",
		"isolbench/internal/device.(*Device).finish":              "device",
		"isolbench/internal/cgroup.(*Group).HierWeightWith.func2": "cgroup",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %s, want %s", fn, got, want)
		}
	}
}

// A real CPU profile of a cell reads back through go tool pprof, and
// the named layers cover most of it.
func TestSelfTimesCoverProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	for _, k := range []string{"none", "bfq", "io.cost"} {
		for _, c := range paperCells(1) {
			if c.name == "fig4/"+k {
				if out := runCell(c); len(out.problems) > 0 {
					t.Fatal(out.problems)
				}
			}
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	self, err := selfTimes([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if self["sim"] == 0 || self["device"] == 0 {
		t.Errorf("no samples in sim or device: %v", self)
	}
	if c := layerCoverage(self); c < minCoveragePct && !raceEnabled {
		t.Errorf("named layers cover %.1f%% of the profile, want >= %d%%", c, minCoveragePct)
	}
}

// parseTop buckets pprof's flat column by layer and ignores the
// header lines above the table.
func TestParseTop(t *testing.T) {
	top := `File: hostbench
Type: cpu
Showing nodes accounting for 1120000000ns, 100% of 1120000000ns total
      flat  flat%   sum%        cum   cum%
770000000ns 68.75% 68.75% 910000000ns 81.25%  isolbench/internal/sim.(*Engine).Run
140000000ns 12.50% 81.25% 140000000ns 12.50%  isolbench/internal/sim.(*heap).push (inline)
110000000ns  9.82% 91.07% 110000000ns  9.82%  runtime.mallocgc
70000000ns  6.25% 97.32% 1120000000ns   100%  slices.pdqsortCmpFunc[go.shape.struct { isolbench/x }]
         0     0%   100% 1120000000ns   100%  main.main
`
	got, err := parseTop([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 910e6, "runtime": 110e6, "other": 70e6}
	if !maps.Equal(got, want) {
		t.Errorf("parseTop = %v, want %v", got, want)
	}
	if _, err := parseTop([]byte("no table here\n")); err == nil {
		t.Error("parseTop accepted output without a table")
	}
}

// The last output line is the result object, and bad flags
// exit non-zero without one.
func TestRunOutput(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, output %q", code, out.String())
	}
	out.Reset()
	if code := run([]string{"--workload", "fleet-churn", "--seed", "2", "--seconds", "0.01"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("result %+v", res)
	}
	for _, m := range []string{"wall_s", "setup_s", "sim_ios_per_s", "events_per_io", "peak_rss_mib", "pass_ratio", "anchor_err_pct"} {
		if v, ok := res.Metrics[m]; !ok || v.Value <= 0 {
			t.Errorf("metric %s = %+v, want a positive value", m, v)
		}
	}
	if !strings.HasPrefix(out.String(), "# env {") {
		t.Errorf("output does not start with the env block: %.80q", out.String())
	}
}
