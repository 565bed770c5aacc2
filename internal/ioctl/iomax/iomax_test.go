package iomax

import (
	"fmt"
	"math"
	"testing"

	"isolbench/internal/cgroup"
	"isolbench/internal/device"
	"isolbench/internal/sim"
)

// harness wires a controller to a recording sink.
type harness struct {
	eng  *sim.Engine
	tree *cgroup.Tree
	g    *cgroup.Group
	ctl  *Controller
	out  []*device.Request
	seq  uint64
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{eng: sim.NewEngine(), tree: cgroup.NewTree()}
	m, err := h.tree.Root().Create("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableController("io"); err != nil {
		t.Fatal(err)
	}
	h.g, err = m.Create("g")
	if err != nil {
		t.Fatal(err)
	}
	h.ctl = New(h.eng, h.tree, "259:0")
	h.ctl.Bind(func(r *device.Request) { h.out = append(h.out, r) })
	return h
}

func (h *harness) submit(op device.Op, size int64) {
	h.seq++
	h.ctl.Submit(&device.Request{ID: h.seq, Op: op, Size: size, Cgroup: h.g.ID()})
}

func TestUnlimitedPassThrough(t *testing.T) {
	h := newHarness(t)
	for i := 0; i < 100; i++ {
		h.submit(device.Read, 4096)
	}
	if len(h.out) != 100 {
		t.Fatalf("unlimited group forwarded %d/100", len(h.out))
	}
}

func TestBandwidthLimitEnforced(t *testing.T) {
	h := newHarness(t)
	// 1 MiB/s read limit; submit 4 KiB reads as fast as tokens allow
	// in a closed loop for one virtual second.
	if err := h.g.SetFile("io.max", "259:0 rbps=1048576"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		h.submit(device.Read, 4096)
	}
	h.eng.RunUntil(sim.Time(sim.Second))
	bytes := int64(len(h.out)) * 4096
	// Allow the 100 ms burst window on top of 1 MiB.
	if bytes > 1<<20+(1<<20)/8 || bytes < (1<<20)*7/10 {
		t.Fatalf("throttled to %d bytes/s, want ~1 MiB/s", bytes)
	}
}

func TestIOPSLimitEnforced(t *testing.T) {
	h := newHarness(t)
	if err := h.g.SetFile("io.max", "259:0 riops=1000"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		h.submit(device.Read, 4096)
	}
	h.eng.RunUntil(sim.Time(sim.Second))
	if n := len(h.out); n > 1150 || n < 700 {
		t.Fatalf("throttled to %d IOPS, want ~1000", n)
	}
}

func TestReadLimitDoesNotThrottleWrites(t *testing.T) {
	h := newHarness(t)
	if err := h.g.SetFile("io.max", "259:0 rbps=4096"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		h.submit(device.Write, 4096)
	}
	if len(h.out) != 50 {
		t.Fatalf("writes throttled by a read limit: %d/50", len(h.out))
	}
}

func TestFIFOOrderUnderThrottle(t *testing.T) {
	h := newHarness(t)
	if err := h.g.SetFile("io.max", "259:0 riops=100"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		h.submit(device.Read, 4096)
	}
	h.eng.RunUntil(sim.Time(2 * sim.Second))
	for i := 1; i < len(h.out); i++ {
		if h.out[i].ID <= h.out[i-1].ID {
			t.Fatal("throttled release broke FIFO order")
		}
	}
}

func TestLargeRequestPasses(t *testing.T) {
	// A request bigger than the burst allowance must still pass
	// (negative balance semantics), then block the group while the
	// debt repays.
	h := newHarness(t)
	if err := h.g.SetFile("io.max", "259:0 rbps=1048576"); err != nil {
		t.Fatal(err)
	}
	h.submit(device.Read, 8<<20) // 8 MiB at 1 MiB/s
	if len(h.out) != 1 {
		t.Fatal("oversized request never dispatched")
	}
	h.submit(device.Read, 4096)
	if len(h.out) != 1 {
		t.Fatal("debt ignored: next request passed immediately")
	}
	// Debt of ~8 MiB repays in ~8 s.
	h.eng.RunUntil(sim.Time(7 * sim.Second))
	if len(h.out) != 1 {
		t.Fatal("request released before the debt was repaid")
	}
	h.eng.RunUntil(sim.Time(9 * sim.Second))
	if len(h.out) != 2 {
		t.Fatal("request not released after debt repayment")
	}
}

func TestPerGroupIsolation(t *testing.T) {
	h := newHarness(t)
	m := h.g.Parent()
	g2, err := m.Create("g2")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.g.SetFile("io.max", "259:0 riops=1"); err != nil {
		t.Fatal(err)
	}
	// g is throttled hard; g2 is unlimited.
	h.submit(device.Read, 4096)
	h.submit(device.Read, 4096)
	for i := 0; i < 10; i++ {
		h.ctl.Submit(&device.Request{ID: 1000 + uint64(i), Op: device.Read, Size: 4096, Cgroup: g2.ID()})
	}
	unthrottled := 0
	for _, r := range h.out {
		if r.Cgroup == g2.ID() {
			unthrottled++
		}
	}
	if unthrottled != 10 {
		t.Fatalf("sibling group affected by throttle: %d/10", unthrottled)
	}
}

func TestDynamicReconfiguration(t *testing.T) {
	// State-of-the-art systems adjust io.max at runtime (§IV-B); the
	// controller must honor the new limit on the next refill.
	h := newHarness(t)
	if err := h.g.SetFile("io.max", "259:0 riops=10"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		h.submit(device.Read, 4096)
	}
	h.eng.RunUntil(sim.Time(100 * sim.Millisecond))
	before := len(h.out)
	if err := h.g.SetFile("io.max", "259:0 max"); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Time(300 * sim.Millisecond))
	if len(h.out) != 100 {
		t.Fatalf("lifting the limit did not release the queue: %d -> %d", before, len(h.out))
	}
}

func TestOverheadsSmall(t *testing.T) {
	h := newHarness(t)
	o := h.ctl.Overheads()
	if o.SubmitCPU > sim.Microsecond {
		t.Fatalf("io.max must be cheap: %+v", o)
	}
	if h.ctl.Name() != "io.max" {
		t.Fatal("name")
	}
	// Completed must be a no-op.
	h.ctl.Completed(&device.Request{})
}

func TestManyGroupsScale(t *testing.T) {
	h := newHarness(t)
	m := h.g.Parent()
	for i := 0; i < 64; i++ {
		g, err := m.Create(fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetFile("io.max", "259:0 riops=100"); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 50; j++ {
			h.ctl.Submit(&device.Request{ID: uint64(i*100 + j), Op: device.Read, Size: 4096, Cgroup: g.ID()})
		}
	}
	h.eng.RunUntil(sim.Time(sim.Second))
	// 64 groups x ~100 IOPS, bounded by 50 queued each.
	if n := len(h.out); n < 64*50*6/10 {
		t.Fatalf("scaling release too slow: %d", n)
	}
}

// TestDeficitWaitRepaysDeficit is a property test over random negative
// balances and rates: refilling for exactly deficitWait(b, lim) leaves
// the bucket affordable, so a release timer forwards on its first
// fire. A wait that truncated to whole nanoseconds left the bucket a
// fraction of a nanosecond's tokens short. The one tolerated shortfall
// is floating-point residue, below 1e-12 of the debt being repaid.
func TestDeficitWaitRepaysDeficit(t *testing.T) {
	h := newHarness(t)
	rng := sim.NewRNG(21)
	// rate draws a limit between 1e2 and 1e10 units/s, log-uniform.
	rate := func() float64 { return math.Pow(10, 2+8*rng.Float64()) }
	// owed draws a deficit worth 10 µs to 1 s at the given rate.
	owed := func(r float64) float64 { return -r * math.Pow(10, -5+5*rng.Float64()) }
	const residue = 1e-12
	short := 0
	for i := 0; i < 20000; i++ {
		lim := cgroup.Unlimited()
		b := &bucket{last: h.eng.Now()}
		// Limit one to four dimensions; the wait is set by the slowest.
		lim.RBps = rate()
		b.rBytes = owed(lim.RBps)
		if rng.Intn(2) == 0 {
			lim.WBps = rate()
			b.wBytes = owed(lim.WBps)
		}
		if rng.Intn(2) == 0 {
			lim.RIOPS = rate()
			b.rOps = owed(lim.RIOPS)
		}
		if rng.Intn(2) == 0 {
			lim.WIOPS = rate()
			b.wOps = owed(lim.WIOPS)
		}
		before := [...]float64{b.rBytes, b.wBytes, b.rOps, b.wOps}
		wait := h.ctl.deficitWait(b, lim)
		h.eng.RunUntil(h.eng.Now().Add(wait))
		h.ctl.refill(b, lim)
		if affordable(b, lim) {
			continue
		}
		short++
		after := [...]float64{b.rBytes, b.wBytes, b.rOps, b.wOps}
		for k := range after {
			if after[k] < 0 && -after[k] > residue*-before[k] {
				t.Fatalf("case %d: after %v, balance %d went %v -> %v, short beyond residue",
					i, wait, k, before[k], after[k])
			}
		}
	}
	t.Logf("%d of 20000 buckets short by floating-point residue only", short)
}
