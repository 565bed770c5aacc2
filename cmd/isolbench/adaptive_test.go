package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"isolbench/internal/core"
	"isolbench/internal/fault"
	"isolbench/internal/harness"
	"isolbench/internal/sim"
)

// TestAdaptiveRuntimeInvariance pins the adaptive knob's determinism
// contract at the CLI layer: the experiments that carry the sixth row
// must render byte-identical reports across -workers and -shards. The
// shaper forces observability on, and observed fleets shard (one
// observer and tracker per shard), so the -shards 4 runs must really
// build sharded fleets and still match; the worker pool may only
// reorder wall-clock work, never results.
func TestAdaptiveRuntimeInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-mode sweeps are multi-second runs")
	}
	setGoldenFlags(t)
	workers := *workersFlag
	t.Cleanup(func() { *workersFlag = workers })
	*knobFlag = "adaptive"

	for _, exp := range []string{"resilience", "tracereplay"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			*workersFlag, *shardsFlag = 1, 0
			base := runExp(t, exp)
			if !strings.Contains(base, "adaptive") {
				t.Fatalf("%s report with -knob adaptive has no adaptive row:\n%s", exp, base)
			}
			for _, tc := range []struct{ w, s int }{{8, 0}, {1, 4}, {8, 4}} {
				*workersFlag, *shardsFlag = tc.w, tc.s
				before := core.ShardedFleets()
				got := runExp(t, exp)
				if sharded := core.ShardedFleets() - before; (sharded > 0) != (tc.s > 1) {
					t.Fatalf("%s at -shards %d built %d sharded fleets", exp, tc.s, sharded)
				}
				if got != base {
					t.Errorf("%s diverged at -workers %d -shards %d from -workers 1 -shards 0:\nbase:\n%s\ngot:\n%s",
						exp, tc.w, tc.s, base, got)
				}
			}
		})
	}
}

// adaptiveResumeUnits builds a small adaptive resilience sweep (one
// unit per fault profile) shaped like resilienceUnits' output but fast
// enough for a test.
func adaptiveResumeUnits(ran *atomic.Int32, shards int) []harness.Unit {
	profiles := []fault.Profile{fault.GCStormProfile(), fault.BrownoutProfile()}
	units := make([]harness.Unit, len(profiles))
	for i, p := range profiles {
		p := p
		units[i] = harness.Unit{Key: "resilience/adaptive/" + p.Name, Run: func(ctx context.Context) (string, error) {
			if ran != nil {
				ran.Add(1)
			}
			r, err := core.RunResilience(core.ResilienceConfig{
				Knob: core.KnobAdaptive, Fault: p,
				Measure: 400 * sim.Millisecond, Seed: 7,
				Control: core.RunControl{Ctx: ctx, Shards: shards},
			})
			if err != nil {
				return "", err
			}
			var buf bytes.Buffer
			core.WriteResilience(&buf, []*core.ResilienceResult{r})
			return buf.String(), nil
		}}
	}
	return units
}

// TestAdaptiveResumeDeterministic interrupts an adaptive resilience
// sweep after its first unit, resumes from the manifest, and requires
// the resumed report to match an uninterrupted run byte-for-byte — the
// closed-loop shaper runs entirely on the engine clock, so a
// checkpointed adaptive run must replay like every other experiment.
// Runs once on the classic runtime and once with -shards requested
// (which the adaptive knob's forced observability clamps off).
func TestAdaptiveResumeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second resilience runs")
	}
	for _, shards := range []int{0, 2} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			header := harness.Header{Exp: "resilience", Profile: "flash980", Seed: 7, Quick: true}

			var clean bytes.Buffer
			r := &harness.Runner{Workers: 2, Out: &clean}
			if _, err := r.Run(context.Background(), adaptiveResumeUnits(nil, shards)); err != nil {
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
			units := adaptiveResumeUnits(nil, shards)
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
			if _, err := rr.Run(context.Background(), adaptiveResumeUnits(&ran, shards)); err != nil {
				t.Fatal(err)
			}
			if int(ran.Load()) != len(adaptiveResumeUnits(nil, shards))-len(cache) {
				t.Fatalf("%d units re-ran with a %d-entry cache", ran.Load(), len(cache))
			}
			if resumed.String() != clean.String() {
				t.Fatalf("resumed adaptive resilience report diverged from the clean run:\nclean:\n%s\nresumed:\n%s",
					clean.String(), resumed.String())
			}
		})
	}
}
