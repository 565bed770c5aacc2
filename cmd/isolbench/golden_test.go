package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"isolbench/internal/core"
	"isolbench/internal/fault"
	"isolbench/internal/harness"
	"isolbench/internal/sim"
)

// setGoldenFlags pins the flag globals to the configuration the
// testdata goldens were generated with (-quick -seed 1) and restores
// them afterwards. Flags are package globals, so these tests must not
// run in parallel.
func setGoldenFlags(t *testing.T) {
	t.Helper()
	quick, seed, knob, prof := *quickFlag, *seedFlag, *knobFlag, *profFlag
	paranoid, slo, cap, shards := *paranoidFlag, *sloFlag, *obsCapFlag, *shardsFlag
	*quickFlag, *seedFlag, *knobFlag, *profFlag = true, 1, "", "flash980"
	*paranoidFlag, *sloFlag, *obsCapFlag, *shardsFlag = false, "", "", 0
	t.Cleanup(func() {
		*quickFlag, *seedFlag, *knobFlag, *profFlag = quick, seed, knob, prof
		*paranoidFlag, *sloFlag, *obsCapFlag, *shardsFlag = paranoid, slo, cap, shards
	})
}

// runExp renders one experiment the way run() does: units from
// unitsFor, the trailing blank on the last unit, harness output
// concatenated in unit order.
func runExp(t *testing.T, exp string) string {
	t.Helper()
	units, err := unitsFor(exp)
	if err != nil {
		t.Fatal(err)
	}
	units[len(units)-1] = withTrailingBlank(units[len(units)-1])
	var buf bytes.Buffer
	r := &harness.Runner{Workers: *workersFlag, Out: &buf}
	if _, err := r.Run(context.Background(), units); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestQuickGoldens pins three representative experiments to their
// checked-in quick-mode outputs, so any change that perturbs simulation
// results — however indirectly — fails loudly instead of drifting the
// paper's tables.
func TestQuickGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-mode sweeps are multi-second runs")
	}
	setGoldenFlags(t)
	// All three experiments are one-device fleets, which run on one
	// engine at any -shards, so the goldens are checked at -shards 0
	// only; multi-shard identity is TestSharded* in internal/core.
	for _, tc := range []struct{ exp, golden string }{
		{"fig2", "golden_fig2_quick.txt"},
		{"fig3", "golden_fig3_quick.txt"},
		{"attribution", "golden_attribution_quick.txt"},
	} {
		tc := tc
		t.Run(tc.exp+"/shards=0", func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := runExp(t, tc.exp); got != string(want) {
				t.Errorf("%s output drifted from testdata/%s\n(regenerate with: isolbench -exp %s -quick -seed 1 > testdata/%s)",
					tc.exp, tc.golden, tc.exp, tc.golden)
			}
		})
	}
}

// fleetResumeUnits builds a small fleetscale sweep (three knobs with
// churn) shaped like fleetscaleUnits' output but fast enough for a
// test.
func fleetResumeUnits(ran *atomic.Int32, shards int) []harness.Unit {
	knobs := []core.Knob{core.KnobNone, core.KnobIOMax, core.KnobIOCost}
	units := make([]harness.Unit, len(knobs))
	for i, k := range knobs {
		k := k
		units[i] = harness.Unit{Key: "fleetscale/" + k.String() + "+churn", Run: func(ctx context.Context) (string, error) {
			if ran != nil {
				ran.Add(1)
			}
			cfg := core.FleetScaleConfig{
				Knob: k, Tenants: []int{5, 12}, Devices: 2, Cores: 4,
				Churn: true, ChurnRate: 200,
				Warmup: 20 * sim.Millisecond, Measure: 80 * sim.Millisecond,
				Seed: 7, Workers: 1, Control: core.RunControl{Ctx: ctx, Shards: shards},
			}
			pts, err := core.RunFleetScale(cfg)
			if err != nil {
				return "", err
			}
			var buf bytes.Buffer
			core.WriteFleetScale(&buf, cfg, pts)
			return buf.String(), nil
		}}
	}
	return units
}

// stripWallCol removes the trailing wall_ms column from fleetscale data
// rows: it is the one wall-clock (nondeterministic) column, and a
// resumed run mixes cached rows with freshly timed ones.
func stripWallCol(s string) string {
	lines := strings.Split(s, "\n")
	for i, ln := range lines {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		ln = strings.TrimRight(ln, " \t")
		if j := strings.LastIndexAny(ln, " \t"); j >= 0 {
			lines[i] = strings.TrimRight(ln[:j], " \t")
		}
	}
	return strings.Join(lines, "\n")
}

// tracereplayResumeUnits builds a small tracereplay sweep (two knobs,
// two shapes, healthy + gcstorm) shaped like tracereplayUnits' output
// but fast enough for a test.
func tracereplayResumeUnits(ran *atomic.Int32) []harness.Unit {
	knobs := []core.Knob{core.KnobIOMax, core.KnobIOCost}
	shapes := []string{"diurnal", "mmpp"}
	profiles := []fault.Profile{{}, fault.GCStormProfile()}
	units := make([]harness.Unit, len(knobs))
	for i, k := range knobs {
		k := k
		units[i] = harness.Unit{Key: "tracereplay/" + k.String(), Run: func(ctx context.Context) (string, error) {
			if ran != nil {
				ran.Add(1)
			}
			cfg := core.TraceReplayConfig{
				Knob: k, Phases: 2, PhaseDur: 80 * sim.Millisecond,
				Warmup: 40 * sim.Millisecond, Seed: 7,
				Control: core.RunControl{Ctx: ctx},
			}
			results, err := core.RunTraceReplayGrid(shapes, profiles, cfg, 2)
			if err != nil {
				return "", err
			}
			var buf bytes.Buffer
			core.WriteTraceReplay(&buf, results)
			return buf.String(), nil
		}}
	}
	return units
}

// TestTraceReplayResumeDeterministic interrupts a tracereplay sweep
// after its first unit, resumes from the manifest, and requires the
// resumed report to match an uninterrupted run byte-for-byte — the
// streaming replay path must be replayable from a checkpoint like
// every other experiment (tracereplay has no wall-clock column, so no
// stripping is needed).
func TestTraceReplayResumeDeterministic(t *testing.T) {
	header := harness.Header{Exp: "tracereplay", Profile: "flash980", Seed: 7, Quick: true}

	var clean bytes.Buffer
	r := &harness.Runner{Workers: 2, Out: &clean}
	if _, err := r.Run(context.Background(), tracereplayResumeUnits(nil)); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel once the first unit has completed.
	path := filepath.Join(t.TempDir(), "m.jsonl")
	j, err := harness.Create(path, header)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	units := tracereplayResumeUnits(nil)
	first := units[0].Run
	units[0].Run = func(ctx context.Context) (string, error) {
		out, err := first(ctx)
		cancel()
		return out, err
	}
	var partial bytes.Buffer
	ir := &harness.Runner{Workers: 2, Journal: j, Out: &partial}
	if _, err := ir.Run(ctx, units); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	j.Close()

	// Resume: cached units must not re-run, and the stitched report
	// must match the clean one byte-for-byte.
	cache, j2, err := harness.Resume(path, header)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(cache) == 0 {
		t.Fatal("nothing journaled before the interrupt")
	}
	var ran atomic.Int32
	var resumed bytes.Buffer
	rr := &harness.Runner{Workers: 2, Cache: cache, Journal: j2, Out: &resumed}
	if _, err := rr.Run(context.Background(), tracereplayResumeUnits(&ran)); err != nil {
		t.Fatal(err)
	}
	if int(ran.Load()) != len(tracereplayResumeUnits(nil))-len(cache) {
		t.Fatalf("%d units re-ran with a %d-entry cache", ran.Load(), len(cache))
	}
	if resumed.String() != clean.String() {
		t.Fatalf("resumed tracereplay report diverged from the clean run:\nclean:\n%s\nresumed:\n%s",
			clean.String(), resumed.String())
	}
}

// TestFleetScaleResumeDeterministic interrupts a churning fleetscale
// sweep after its first unit, resumes from the manifest, and requires
// the resumed report to match an uninterrupted run modulo wall_ms —
// the churn path must be replayable from a checkpoint like every other
// experiment. Runs once on one engine and once on two shards: an
// interrupted sharded sweep must resume to the same bytes.
func TestFleetScaleResumeDeterministic(t *testing.T) {
	for _, shards := range []int{0, 2} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			header := harness.Header{Exp: "fleetscale", Profile: "flash980", Seed: 7, Quick: true}

			var clean bytes.Buffer
			r := &harness.Runner{Workers: 2, Out: &clean}
			if _, err := r.Run(context.Background(), fleetResumeUnits(nil, shards)); err != nil {
				t.Fatal(err)
			}

			// Interrupted run: cancel once the first unit has completed.
			path := filepath.Join(t.TempDir(), "m.jsonl")
			j, err := harness.Create(path, header)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			units := fleetResumeUnits(nil, shards)
			first := units[0].Run
			units[0].Run = func(ctx context.Context) (string, error) {
				out, err := first(ctx)
				cancel()
				return out, err
			}
			var partial bytes.Buffer
			ir := &harness.Runner{Workers: 2, Journal: j, Out: &partial}
			if _, err := ir.Run(ctx, units); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
			}
			j.Close()

			// Resume: cached units must not re-run, and the stitched report
			// must match the clean one byte-for-byte once wall_ms is stripped.
			cache, j2, err := harness.Resume(path, header)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if len(cache) == 0 {
				t.Fatal("nothing journaled before the interrupt")
			}
			var ran atomic.Int32
			var resumed bytes.Buffer
			rr := &harness.Runner{Workers: 2, Cache: cache, Journal: j2, Out: &resumed}
			if _, err := rr.Run(context.Background(), fleetResumeUnits(&ran, shards)); err != nil {
				t.Fatal(err)
			}
			if int(ran.Load()) != len(fleetResumeUnits(nil, shards))-len(cache) {
				t.Fatalf("%d units re-ran with a %d-entry cache", ran.Load(), len(cache))
			}
			if got, want := stripWallCol(resumed.String()), stripWallCol(clean.String()); got != want {
				t.Fatalf("resumed fleetscale report diverged from the clean run:\nclean:\n%s\nresumed:\n%s", want, got)
			}
		})
	}
}
