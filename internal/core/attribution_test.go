package core

import (
	"bytes"
	"reflect"
	"testing"

	"isolbench/internal/obs/attr"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// runAttrScenario builds a small two-tenant contention scenario with
// attribution on or off and returns the cluster and its window result.
func runAttrScenario(t *testing.T, knob Knob, attrOn bool) (*Fleet, Result) {
	t.Helper()
	cl, err := NewFleet(Options{
		Knob: knob, Cores: 2, Seed: 7,
		Observe: true, Attr: attrOn,
		AttrConfig: attr.Config{Strict: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	glc, err := cl.NewGroup("lc")
	if err != nil {
		t.Fatal(err)
	}
	gbatch, err := cl.NewGroup("batch")
	if err != nil {
		t.Fatal(err)
	}
	lc := workload.LCApp("lc", glc)
	lc.Core = 0
	if _, err := cl.AddApp(lc, 0); err != nil {
		t.Fatal(err)
	}
	batch := workload.BatchApp("batch", gbatch)
	batch.Core = 0 // share the LC app's core so CPU blame exists
	if _, err := cl.AddApp(batch, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.RunPhase(50*sim.Millisecond, 300*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	return cl, cl.Result()
}

// TestAttributionOffGolden pins the nil-observer fast path: enabling
// attribution must not perturb the event stream, so every measured
// quantity is identical with it on or off.
func TestAttributionOffGolden(t *testing.T) {
	for _, knob := range AllKnobs() {
		knob := knob
		t.Run(knob.String(), func(t *testing.T) {
			_, off := runAttrScenario(t, knob, false)
			_, on := runAttrScenario(t, knob, true)
			if !reflect.DeepEqual(off.Groups, on.Groups) {
				t.Fatalf("group stats diverge with attribution on:\noff: %+v\non:  %+v",
					off.Groups, on.Groups)
			}
			if !reflect.DeepEqual(off.Apps, on.Apps) {
				t.Fatalf("app stats diverge with attribution on")
			}
			if off.CPUUtil != on.CPUUtil || off.IOs != on.IOs {
				t.Fatalf("cpu/io counters diverge: off(%v,%d) on(%v,%d)",
					off.CPUUtil, off.IOs, on.CPUUtil, on.IOs)
			}
		})
	}
}

// TestAttributionConservation runs every knob with strict per-request
// conservation checking: each finished request's charges must sum to
// its measured wait exactly (violations are recorded by the tracker
// and surfaced through CheckInvariants in paranoid mode).
func TestAttributionConservation(t *testing.T) {
	for _, knob := range AllKnobs() {
		knob := knob
		t.Run(knob.String(), func(t *testing.T) {
			cl, _ := runAttrScenario(t, knob, true)
			if v := cl.Attr.Violations(); len(v) != 0 {
				t.Fatalf("conservation violations: %v", v)
			}
			if cl.Attr.Finished() == 0 {
				t.Fatal("no requests folded into the blame matrix")
			}
			// The matrix must not be empty either: the contended LC
			// tenant waited somewhere.
			var total sim.Duration
			for _, v := range cl.Attr.Victims() {
				total += cl.Attr.VictimTotal(v)
			}
			if total <= 0 {
				t.Fatal("blame matrix recorded no wait at all")
			}
		})
	}
}

// TestAttributionGridWorkers pins the report's byte-identity across
// worker-pool widths.
func TestAttributionGridWorkers(t *testing.T) {
	knobs := []Knob{KnobMQDeadline, KnobIOMax}
	cfg := AttributionConfig{
		Warmup:  20 * sim.Millisecond,
		Measure: 150 * sim.Millisecond,
		Seed:    3,
	}
	r1, err := RunAttributionGrid(knobs, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunAttributionGrid(knobs, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b8 bytes.Buffer
	WriteAttribution(&b1, r1)
	WriteAttribution(&b8, r8)
	if b1.String() != b8.String() {
		t.Fatalf("attribution report differs between -workers 1 and 8:\n%s\n---\n%s",
			b1.String(), b8.String())
	}
	if b1.Len() == 0 {
		t.Fatal("empty attribution report")
	}
}

// TestResilienceBlameShift checks the resilience cell's sixth column:
// with Attr on, both sides report the protected tenant's dominant
// layer and the report renders the blame_shift column.
func TestResilienceBlameShift(t *testing.T) {
	rs := []*ResilienceResult{{
		Knob: KnobBFQ, Fault: "gc-storm",
		HasBlame: true, BaseBlame: "sched 61%", FaultBlame: "gc 54%",
	}}
	var buf bytes.Buffer
	WriteResilience(&buf, rs)
	out := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte("blame_shift")) {
		t.Fatalf("no blame_shift column:\n%s", out)
	}
	if !bytes.Contains(buf.Bytes(), []byte("sched 61% -> gc 54%")) {
		t.Fatalf("blame shift cell missing:\n%s", out)
	}
	// Without blame the column must not appear (pre-PR shape).
	var plain bytes.Buffer
	WriteResilience(&plain, []*ResilienceResult{{Knob: KnobBFQ, Fault: "gc-storm"}})
	if bytes.Contains(plain.Bytes(), []byte("blame_shift")) {
		t.Fatalf("blame_shift rendered without attribution:\n%s", plain.String())
	}
}
