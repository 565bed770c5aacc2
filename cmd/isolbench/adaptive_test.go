package main

import (
	"bytes"
	"context"
	"errors"
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
// must render byte-identical reports across -workers; the worker pool
// may only reorder wall-clock work, never results. Both experiments
// run one-device fleets, which run on one engine at any -shards; the
// adaptive knob's multi-shard identity is TestShardedObserveIdentity
// in internal/core.
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
			*workersFlag = 1
			base := runExp(t, exp)
			if !strings.Contains(base, "adaptive") {
				t.Fatalf("%s report with -knob adaptive has no adaptive row:\n%s", exp, base)
			}
			*workersFlag = 8
			if got := runExp(t, exp); got != base {
				t.Errorf("%s diverged at -workers 8 from -workers 1:\nbase:\n%s\ngot:\n%s", exp, base, got)
			}
		})
	}
}

// adaptiveResumeUnits builds a small adaptive resilience sweep (one
// unit per fault profile) shaped like resilienceUnits' output but fast
// enough for a test.
func adaptiveResumeUnits(ran *atomic.Int32) []harness.Unit {
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
				Control: core.RunControl{Ctx: ctx},
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
// Resilience runs one-device fleets, which run on one engine at any
// -shards, so the sweep runs at -shards 0 only.
func TestAdaptiveResumeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second resilience runs")
	}
	t.Run("shards=0", func(t *testing.T) {
		header := harness.Header{Exp: "resilience", Profile: "flash980", Seed: 7, Quick: true}

		var clean bytes.Buffer
		r := &harness.Runner{Workers: 2, Out: &clean}
		if _, err := r.Run(context.Background(), adaptiveResumeUnits(nil)); err != nil {
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
		units := adaptiveResumeUnits(nil)
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
		if _, err := rr.Run(context.Background(), adaptiveResumeUnits(&ran)); err != nil {
			t.Fatal(err)
		}
		if int(ran.Load()) != len(adaptiveResumeUnits(nil))-len(cache) {
			t.Fatalf("%d units re-ran with a %d-entry cache", ran.Load(), len(cache))
		}
		if resumed.String() != clean.String() {
			t.Fatalf("resumed adaptive resilience report diverged from the clean run:\nclean:\n%s\nresumed:\n%s",
				clean.String(), resumed.String())
		}
	})
}
