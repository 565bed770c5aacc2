package iocost

import (
	"fmt"
	"math"
	"testing"

	"isolbench/internal/cgroup"
	"isolbench/internal/device"
	"isolbench/internal/sim"
)

const testModel = "259:0 ctrl=user model=linear rbps=2469606195 rseqiops=561000 rrandiops=330000 wbps=859000000 wseqiops=210000 wrandiops=150000"

type harness struct {
	eng   *sim.Engine
	tree  *cgroup.Tree
	mgmt  *cgroup.Group
	ctl   *Controller
	out   []*device.Request
	outBy map[int]int
	seq   uint64
}

func newHarness(t *testing.T, qos string) *harness {
	t.Helper()
	h := &harness{eng: sim.NewEngine(), tree: cgroup.NewTree(), outBy: map[int]int{}}
	if err := h.tree.Root().SetFile("io.cost.model", testModel); err != nil {
		t.Fatal(err)
	}
	if qos != "" {
		if err := h.tree.Root().SetFile("io.cost.qos", "259:0 "+qos); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	h.mgmt, err = h.tree.Root().Create("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.mgmt.EnableController("io"); err != nil {
		t.Fatal(err)
	}
	h.ctl = New(h.eng, h.tree, "259:0")
	h.ctl.Bind(func(r *device.Request) {
		h.out = append(h.out, r)
		h.outBy[r.Cgroup]++
	})
	return h
}

func (h *harness) group(t *testing.T, name, weight string) *cgroup.Group {
	t.Helper()
	g, err := h.mgmt.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if weight != "" {
		if err := g.SetFile("io.weight", weight); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func (h *harness) submit(g *cgroup.Group, op device.Op, size int64, seq bool) *device.Request {
	h.seq++
	r := &device.Request{ID: h.seq, Op: op, Size: size, Seq: seq, Cgroup: g.ID()}
	r.Submit = h.eng.Now()
	h.ctl.Submit(r)
	return r
}

func TestCoefDerivation(t *testing.T) {
	m := cgroup.CostModel{
		RBps: 2469606195, RSeqIOPS: 561000, RRandIOPS: 330000,
		WBps: 859000000, WSeqIOPS: 210000, WRandIOPS: 150000,
	}
	c := deriveCoefs(m)
	// A 4 KiB random read must cost exactly 1e9/rrandiops (the kernel
	// derivation subtracts one page from the per-IO coefficient).
	got := c.cost(&device.Request{Op: device.Read, Size: 4096})
	want := 1e9 / 330000
	if math.Abs(got-want) > 1 {
		t.Fatalf("4K random read cost = %v, want %v", got, want)
	}
	// Large sequential reads are bandwidth-limited: cost ~ bytes/rbps.
	got = c.cost(&device.Request{Op: device.Read, Size: 1 << 20, Seq: true})
	want = 1e9 * float64(1<<20) / 2469606195
	if math.Abs(got-want)/want > 0.25 {
		t.Fatalf("1M seq read cost = %v, want ~%v", got, want)
	}
	// Writes cost more than reads (asymmetric flash model).
	wr := c.cost(&device.Request{Op: device.Write, Size: 4096})
	rd := c.cost(&device.Request{Op: device.Read, Size: 4096})
	if wr <= rd {
		t.Fatalf("write cost %v should exceed read cost %v", wr, rd)
	}
}

func TestModelCapsThroughput(t *testing.T) {
	h := newHarness(t, "")
	g := h.group(t, "a", "")
	// Flood at t=0 and run one virtual second; the model caps 4 KiB
	// random reads at ~330K IOPS (plus the margin budget).
	for i := 0; i < 400000; i++ {
		h.submit(g, device.Read, 4096, false)
	}
	h.eng.RunUntil(sim.Time(sim.Second))
	iops := float64(len(h.out))
	if iops > 360000 || iops < 250000 {
		t.Fatalf("model-capped throughput = %.0f IOPS, want ~330K", iops)
	}
}

func TestWeightedShares(t *testing.T) {
	h := newHarness(t, "")
	hi := h.group(t, "hi", "800")
	lo := h.group(t, "lo", "200")
	// Both groups flood; shares should approach 4:1.
	for i := 0; i < 400000; i++ {
		h.submit(hi, device.Read, 4096, false)
		h.submit(lo, device.Read, 4096, false)
	}
	h.eng.RunUntil(sim.Time(sim.Second))
	hiN, loN := h.outBy[hi.ID()], h.outBy[lo.ID()]
	if hiN == 0 || loN == 0 {
		t.Fatalf("counts: hi=%d lo=%d", hiN, loN)
	}
	ratio := float64(hiN) / float64(loN)
	if ratio < 3.2 || ratio > 4.8 {
		t.Fatalf("weighted share ratio = %.2f, want ~4", ratio)
	}
}

func TestDonationKeepsWorkConservation(t *testing.T) {
	h := newHarness(t, "")
	// A huge-weight group that barely submits must not strand the
	// device: the busy low-weight group absorbs the unused share.
	hi := h.group(t, "hi", "10000")
	lo := h.group(t, "lo", "100")
	done := 0
	_ = done
	// hi submits 100 IOPS worth; lo floods.
	for w := 0; w < 10; w++ {
		h.submit(hi, device.Read, 4096, false)
		for i := 0; i < 60000; i++ {
			h.submit(lo, device.Read, 4096, false)
		}
		h.eng.RunUntil(h.eng.Now().Add(100 * sim.Millisecond))
	}
	loIOPS := float64(h.outBy[lo.ID()])
	// Without donation lo would be pinned near 100/10100 of 330K
	// (~3.3K IOPS); with donation it should approach the model cap.
	if loIOPS < 200000 {
		t.Fatalf("lo got %.0f IOs over 1s: donation not working", loIOPS)
	}
}

func TestQoSVrateThrottlesOnLatencyMiss(t *testing.T) {
	h := newHarness(t, "enable=1 rpct=95.00 rlat=100 wpct=95.00 wlat=400 min=50.00 max=100.00")
	g := h.group(t, "a", "")
	// Report slow completions so the QoS controller sees misses
	// (0.95^14 < 0.5, so 20 windows pin vrate at the floor).
	for w := 0; w < 20; w++ {
		for i := 0; i < 100; i++ {
			r := h.submit(g, device.Read, 4096, false)
			r.Queued = h.eng.Now()
			r.Complete = h.eng.Now().Add(2 * sim.Millisecond)
			h.ctl.Completed(r)
		}
		h.eng.RunUntil(h.eng.Now().Add(QoSPeriod))
	}
	if v := h.ctl.VRate(); v > 0.51 {
		t.Fatalf("vrate = %.3f after sustained misses, want pinned at min 0.50", v)
	}
	lo, _ := h.ctl.VRateRange()
	if lo > 0.51 {
		t.Fatalf("vrate range floor = %.3f", lo)
	}
}

func TestQoSVrateRecoversWhenMet(t *testing.T) {
	h := newHarness(t, "enable=1 rpct=95.00 rlat=1000 wpct=95.00 wlat=2000 min=50.00 max=125.00")
	g := h.group(t, "a", "")
	for w := 0; w < 20; w++ {
		for i := 0; i < 100; i++ {
			r := h.submit(g, device.Read, 4096, false)
			r.Queued = h.eng.Now()
			r.Complete = h.eng.Now().Add(50 * sim.Microsecond)
			h.ctl.Completed(r)
		}
		h.eng.RunUntil(h.eng.Now().Add(QoSPeriod))
	}
	if v := h.ctl.VRate(); v < 1.2 {
		t.Fatalf("vrate = %.3f with targets met, want to climb to max 1.25", v)
	}
}

func TestQoSDisabledPinsVrate(t *testing.T) {
	h := newHarness(t, "enable=0 min=100.00 max=100.00")
	g := h.group(t, "a", "")
	for w := 0; w < 5; w++ {
		for i := 0; i < 50; i++ {
			r := h.submit(g, device.Read, 4096, false)
			r.Complete = h.eng.Now().Add(5 * sim.Millisecond)
			h.ctl.Completed(r)
		}
		h.eng.RunUntil(h.eng.Now().Add(QoSPeriod))
	}
	if v := h.ctl.VRate(); v != 1.0 {
		t.Fatalf("vrate = %.3f with QoS disabled, want exactly 1.0", v)
	}
}

func TestNoModelPassesThrough(t *testing.T) {
	eng := sim.NewEngine()
	tree := cgroup.NewTree()
	m, _ := tree.Root().Create("m")
	m.EnableController("io")
	g, _ := m.Create("g")
	ctl := New(eng, tree, "259:0")
	n := 0
	ctl.Bind(func(*device.Request) { n++ })
	for i := 0; i < 100000; i++ {
		ctl.Submit(&device.Request{ID: uint64(i), Op: device.Read, Size: 4096, Cgroup: g.ID()})
	}
	if n != 100000 {
		t.Fatalf("no-model controller throttled: %d", n)
	}
}

func TestFIFOWithinGroup(t *testing.T) {
	h := newHarness(t, "")
	g := h.group(t, "a", "")
	for i := 0; i < 100000; i++ {
		h.submit(g, device.Read, 4096, false)
	}
	h.eng.RunUntil(sim.Time(2 * sim.Second))
	last := uint64(0)
	for _, r := range h.out {
		if r.ID <= last {
			t.Fatal("release order broke FIFO within group")
		}
		last = r.ID
	}
}

func TestReactivationStartsAtClock(t *testing.T) {
	h := newHarness(t, "")
	g := h.group(t, "a", "")
	// Flood, drain, idle for a while, then submit again: the group
	// must not have banked budget while idle (no burst beyond margin).
	for i := 0; i < 100000; i++ {
		h.submit(g, device.Read, 4096, false)
	}
	h.eng.RunUntil(sim.Time(sim.Second))
	drained := len(h.out)
	h.eng.RunUntil(sim.Time(10 * sim.Second)) // long idle
	before := len(h.out)
	if before != drained && before-drained > 100000-drained {
		t.Fatal("requests appeared from nowhere")
	}
	burst := 0
	h.ctl.Bind(func(r *device.Request) { burst++ })
	for i := 0; i < 50000; i++ {
		h.submit(g, device.Read, 4096, false)
	}
	// Immediately issuable work is bounded by the margin budget
	// (~5 ms of capacity ~= 1650 requests), not 10 s of banked idle.
	if burst > 4000 {
		t.Fatalf("idle group banked budget: %d instant releases", burst)
	}
}

func TestOverheadsProfile(t *testing.T) {
	h := newHarness(t, "")
	o := h.ctl.Overheads()
	if o.ContentionFactor <= 0 || o.ContentionCap <= 0 {
		t.Fatalf("io.cost must model hot-path contention: %+v", o)
	}
	if o.SubmitCPU > sim.Microsecond {
		t.Fatalf("io.cost per-IO cost too large: %+v", o)
	}
	if h.ctl.Name() != "io.cost" {
		t.Fatal("name")
	}
}

func TestManyGroups(t *testing.T) {
	h := newHarness(t, "")
	groups := make([]*cgroup.Group, 16)
	for i := range groups {
		groups[i] = h.group(t, fmt.Sprintf("g%d", i), "")
	}
	for round := 0; round < 20; round++ {
		for _, g := range groups {
			for j := 0; j < 500; j++ {
				h.submit(g, device.Read, 4096, false)
			}
		}
		h.eng.RunUntil(h.eng.Now().Add(50 * sim.Millisecond))
	}
	counts := make([]float64, len(groups))
	for i, g := range groups {
		counts[i] = float64(h.outBy[g.ID()])
	}
	mean := 0.0
	for _, c := range counts {
		mean += c
	}
	mean /= float64(len(counts))
	for i, c := range counts {
		if math.Abs(c-mean)/mean > 0.2 {
			t.Fatalf("group %d got %v vs mean %v: uniform groups should share equally", i, c, mean)
		}
	}
}

// TestReleaseFiresOnce pins that a release timer fires at or after the
// instant its group's budget returns, so (almost) every fire forwards
// a request. A wait that truncated deficit/vrate fired a fraction of a
// nanosecond early, forwarded nothing and re-armed at the 2 µs floor:
// over a third of this test's fires were empty. Only a floating-point
// residue in advance, or a vrate or hweight change between arm and
// fire, may leave one empty now.
func TestReleaseFiresOnce(t *testing.T) {
	h := newHarness(t, "")
	hi := h.group(t, "hi", "800")
	lo := h.group(t, "lo", "200")
	var fires, empty int
	release := h.ctl.releaseCB
	h.ctl.releaseCB = func(arg any) {
		before := len(h.out)
		release(arg)
		fires++
		if len(h.out) == before {
			empty++
		}
	}
	for i := 0; i < 40000; i++ {
		h.submit(hi, device.Read, 4096, false)
		h.submit(lo, device.Read, 4096, false)
	}
	h.eng.RunUntil(sim.Time(100 * sim.Millisecond))
	if fires < 10000 {
		t.Fatalf("only %d release fires: the model does not bind", fires)
	}
	if h.outBy[hi.ID()] <= h.outBy[lo.ID()] {
		t.Fatalf("forwarded hi=%d lo=%d: weights do not bind", h.outBy[hi.ID()], h.outBy[lo.ID()])
	}
	t.Logf("%d of %d release fires forwarded nothing", empty, fires)
	if frac := float64(empty) / float64(fires); frac >= 0.001 {
		t.Fatalf("%d of %d release fires (%.2f%%) forwarded nothing, want < 0.1%%",
			empty, fires, 100*frac)
	}
}
