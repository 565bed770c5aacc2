package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"isolbench/internal/blk"
	"isolbench/internal/fault"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
	"isolbench/internal/workload/gen"
)

// quickTraceReplay keeps the grid tests fast: two short phases.
func quickTraceReplay(knob Knob) TraceReplayConfig {
	return TraceReplayConfig{
		Knob: knob, Phases: 2, PhaseDur: 100 * sim.Millisecond,
		Warmup: 50 * sim.Millisecond, Seed: 42,
		Control: RunControl{Ctx: context.Background()},
	}
}

// TestTraceReplayParallelDeterminism: the tracereplay grid must be
// byte-identical at any pool width — both the result structs and the
// rendered report.
func TestTraceReplayParallelDeterminism(t *testing.T) {
	shapes := []string{"diurnal", "mmpp"}
	profiles := []fault.Profile{{}, fault.GCStormProfile()}
	seq, err := RunTraceReplayGrid(shapes, profiles, quickTraceReplay(KnobIOCost), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunTraceReplayGrid(shapes, profiles, quickTraceReplay(KnobIOCost), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("workers=1 vs workers=8 diverged:\nseq: %+v\npar: %+v", seq, par)
	}
	var a, b bytes.Buffer
	WriteTraceReplay(&a, seq)
	WriteTraceReplay(&b, par)
	if a.String() != b.String() {
		t.Fatalf("rendered reports diverged:\nseq:\n%s\npar:\n%s", a.String(), b.String())
	}
}

// TestTraceReplayCellShape: every generative shape produces a full,
// sane cell — per-phase offered load and tails present, verdict
// consistent with the phases.
func TestTraceReplayCellShape(t *testing.T) {
	for _, shape := range TraceReplayShapes() {
		shape := shape
		t.Run(shape, func(t *testing.T) {
			t.Parallel()
			cfg := quickTraceReplay(KnobIOCost)
			cfg.Shape = shape
			r, err := RunTraceReplay(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Phases) != 2 {
				t.Fatalf("got %d phases, want 2", len(r.Phases))
			}
			worst := 0.0
			for ph, p := range r.Phases {
				if p.Offered <= 0 {
					t.Fatalf("phase %d offered no load", ph)
				}
				if p.SoloP99 <= 0 || p.ContP99 <= 0 || p.Inflation <= 0 {
					t.Fatalf("phase %d has degenerate tails: %+v", ph, p)
				}
				if p.Inflation > worst {
					worst = p.Inflation
				}
			}
			if r.WorstInflation != worst {
				t.Fatalf("WorstInflation %.3f != max per-phase %.3f", r.WorstInflation, worst)
			}
			if r.Isolates != (worst <= traceReplayIsolationBar) {
				t.Fatalf("verdict %v contradicts worst inflation %.2fx", r.Isolates, worst)
			}
			if r.Fault != "healthy" {
				t.Fatalf("zero profile should report healthy, got %q", r.Fault)
			}
		})
	}
}

// TestTraceReplayRejectsUnknownShape: a typo'd shape is a loud error,
// not a silently empty cell.
func TestTraceReplayRejectsUnknownShape(t *testing.T) {
	cfg := quickTraceReplay(KnobNone)
	cfg.Shape = "sinusoidal"
	if _, err := RunTraceReplay(cfg); err == nil {
		t.Fatal("RunTraceReplay accepted an unknown shape")
	}
}

// replayGoldenRun builds a single-tenant replay cluster from opts,
// streams a fixed diurnal trace through it, and returns the cluster
// and the replay stats.
func replayGoldenRun(t *testing.T, opts Options) (*Fleet, workload.Stats) {
	t.Helper()
	cl, err := NewFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cl.NewGroup("replay")
	if err != nil {
		t.Fatal(err)
	}
	sh := gen.Shape{Seed: 17, Duration: 300 * sim.Millisecond, BaseIOPS: 15000, DiurnalAmp: 0.6}
	rp, err := cl.AddReplay(sh.Source(), workload.ReplayConfig{Group: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.RunTo(cl.Eng.Now().Add(sh.Duration + sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !rp.Done() {
		t.Fatal("replay did not drain")
	}
	return cl, rp.Stats()
}

// TestReplayFaultDisabledGolden extends the PR 3 determinism contract
// to the replay path: a zero fault.Profile and zero RetryPolicy must
// leave a replay run byte-identical — same stats AND the same number
// of engine events — to a cluster built without fault options at all.
func TestReplayFaultDisabledGolden(t *testing.T) {
	plainCl, plain := replayGoldenRun(t, Options{Knob: KnobIOCost, Seed: 42})
	offCl, off := replayGoldenRun(t, Options{
		Knob: KnobIOCost, Seed: 42, Fault: fault.Profile{}, Retry: blk.RetryPolicy{},
	})
	if !reflect.DeepEqual(plain, off) {
		t.Fatalf("disabled faults changed the replay stats:\nplain: %+v\n  off: %+v", plain, off)
	}
	if plainCl.Eng.Processed() != offCl.Eng.Processed() {
		t.Fatalf("disabled faults changed the replay event stream: %d vs %d events",
			plainCl.Eng.Processed(), offCl.Eng.Processed())
	}
}

// shardedReplayStats runs a two-device fleet — one closed-loop app and
// one generative replay per device, on shard-disjoint cores — and
// returns the replay stats per device.
func shardedReplayStats(t *testing.T, shards int) []workload.Stats {
	t.Helper()
	cl, err := NewFleet(Options{
		Knob: KnobNone, Seed: 9, Devices: 2, Cores: 4,
		Control: RunControl{Shards: shards},
	})
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*workload.ReplayApp, 2)
	for dev := 0; dev < 2; dev++ {
		gn, err := cl.NewGroup(fmt.Sprintf("nbr%d", dev))
		if err != nil {
			t.Fatal(err)
		}
		spec := workload.BatchApp("nbr", gn)
		spec.Core = dev * 2
		if _, err := cl.AddApp(spec, dev); err != nil {
			t.Fatal(err)
		}
		gr, err := cl.NewGroup(fmt.Sprintf("rep%d", dev))
		if err != nil {
			t.Fatal(err)
		}
		sh := gen.Shape{Seed: 5 + uint64(dev), Duration: 400 * sim.Millisecond, BaseIOPS: 10000}
		reps[dev], err = cl.AddReplay(sh.Source(), workload.ReplayConfig{Group: gr, Core: dev*2 + 1}, dev)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.RunPhase(50*sim.Millisecond, 300*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if want := max(shards, 1); cl.Shards() != want {
		t.Fatalf("fleet runs %d shards, want %d", cl.Shards(), want)
	}
	out := make([]workload.Stats, 2)
	for i, rp := range reps {
		out[i] = rp.Stats()
	}
	return out
}

// TestReplayShardedIdentity: -shards is a performance knob, never an
// output knob — replays streaming on two shard engines must bank the
// same stats as on one.
func TestReplayShardedIdentity(t *testing.T) {
	single := shardedReplayStats(t, 0)
	sharded := shardedReplayStats(t, 2)
	if !reflect.DeepEqual(single, sharded) {
		t.Fatalf("sharded replay diverged from the single-engine run:\nsingle:  %+v\nsharded: %+v", single, sharded)
	}
}

// BenchmarkReplayStream is the alloc gate's replay sample: one full
// cluster streaming a ~20k-request generative trace end to end. The
// per-request path must stay on the freelist — allocs/op is dominated
// by cluster construction, so a new per-I/O allocation (+1 alloc ×
// ~20k requests) blows the budget immediately.
func BenchmarkReplayStream(b *testing.B) {
	sh := gen.Shape{Seed: 11, Duration: sim.Second, BaseIOPS: 20000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cl, err := NewFleet(Options{Knob: KnobNone, Seed: 13})
		if err != nil {
			b.Fatal(err)
		}
		g, err := cl.NewGroup("replay")
		if err != nil {
			b.Fatal(err)
		}
		rp, err := cl.AddReplay(sh.Source(), workload.ReplayConfig{Group: g}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := cl.RunTo(cl.Eng.Now().Add(sh.Duration + sim.Second)); err != nil {
			b.Fatal(err)
		}
		if st := rp.Stats(); st.IOs == 0 {
			b.Fatal("replay banked no completions")
		}
	}
}
