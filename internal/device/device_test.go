package device

import (
	"reflect"
	"strings"
	"testing"

	"isolbench/internal/sim"
)

func newTestDevice(t *testing.T, prof Profile) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	d, err := New(eng, prof, 42)
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

// submitN keeps qd requests in flight until the engine reaches horizon;
// returns completed count and a latency sum.
func driveClosedLoop(eng *sim.Engine, d *Device, qd int, mk func(i uint64) *Request, horizon sim.Time) (completed uint64, latSum sim.Duration) {
	var n uint64
	var issue func()
	issue = func() {
		for d.CanAccept() && d.Inflight() < qd {
			n++
			r := mk(n)
			r.Submit = eng.Now()
			r.OnComplete = func(r *Request) {
				completed++
				latSum += r.Latency()
				issue()
			}
			d.Submit(r)
		}
	}
	issue()
	eng.RunUntil(horizon)
	return completed, latSum
}

func read4K(i uint64) *Request {
	return &Request{ID: i, Op: Read, Size: 4096, Offset: int64(i * 1e6 % (1 << 38))}
}

func TestDeviceQD1Latency(t *testing.T) {
	eng, d := newTestDevice(t, Flash980Profile())
	completed, latSum := driveClosedLoop(eng, d, 1, read4K, sim.Time(sim.Second))
	if completed == 0 {
		t.Fatal("no completions")
	}
	mean := sim.Duration(int64(latSum) / int64(completed))
	// 4 KiB random read at QD1: ~75 us access + ~1 us transfer.
	if mean < 60*sim.Microsecond || mean > 110*sim.Microsecond {
		t.Fatalf("QD1 mean latency = %v, want ~76us", mean)
	}
}

func TestDeviceRandomReadSaturation(t *testing.T) {
	eng, d := newTestDevice(t, Flash980Profile())
	completed, _ := driveClosedLoop(eng, d, 1024, read4K, sim.Time(sim.Second))
	iops := float64(completed)
	// The paper's 980 PRO saturates ~2.9 GiB/s of 4 KiB reads (~770K).
	if iops < 700_000 || iops > 880_000 {
		t.Fatalf("4K random read saturation = %.0f IOPS, want ~770K", iops)
	}
}

func TestDeviceSeqReadFasterThanRandom(t *testing.T) {
	prof := Flash980Profile()
	eng, d := newTestDevice(t, prof)
	seqDone, _ := driveClosedLoop(eng, d, 256, func(i uint64) *Request {
		return &Request{ID: i, Op: Read, Size: 128 << 10, Seq: true, Offset: int64(i) * (128 << 10)}
	}, sim.Time(sim.Second))
	eng2, d2 := newTestDevice(t, prof)
	randDone, _ := driveClosedLoop(eng2, d2, 256, func(i uint64) *Request {
		return &Request{ID: i, Op: Read, Size: 128 << 10, Offset: int64(i * 7e6 % (1 << 38))}
	}, sim.Time(sim.Second))
	seqBW := float64(seqDone) * (128 << 10)
	randBW := float64(randDone) * (128 << 10)
	if seqBW <= randBW*1.3 {
		t.Fatalf("sequential reads not faster: seq %.2f vs rand %.2f GiB/s",
			seqBW/(1<<30), randBW/(1<<30))
	}
	if seqBW < 4.5e9 {
		t.Fatalf("seq read bandwidth %.2f GiB/s, want > 4.2", seqBW/(1<<30))
	}
}

func TestDeviceFreshVsSteadyWrites(t *testing.T) {
	prof := Flash980Profile()
	mkWrite := func(i uint64) *Request {
		return &Request{ID: i, Op: Write, Size: 4096, Offset: int64(i * 3e6 % (1 << 38))}
	}
	eng, fresh := newTestDevice(t, prof)
	freshDone, _ := driveClosedLoop(eng, fresh, 256, mkWrite, sim.Time(500*sim.Millisecond))

	eng2, aged := newTestDevice(t, prof)
	aged.Precondition()
	agedDone, _ := driveClosedLoop(eng2, aged, 256, mkWrite, sim.Time(500*sim.Millisecond))

	if freshDone <= agedDone {
		t.Fatalf("preconditioned device should be slower: fresh %d vs aged %d", freshDone, agedDone)
	}
	if aged.Stats().GCEvents == 0 {
		t.Fatal("sustained random writes on an aged device should trigger GC")
	}
}

func TestDeviceMixedReadWriteInterference(t *testing.T) {
	// Paper Fig. 6b: read+write on a preconditioned flash device
	// collapses aggregate bandwidth below ~0.7 GiB/s.
	prof := Flash980Profile()
	eng, d := newTestDevice(t, prof)
	d.Precondition()
	var bytes int64
	var issue func()
	n := uint64(0)
	inflight := 0
	issue = func() {
		for d.CanAccept() && inflight < 512 {
			n++
			op := Read
			if n%2 == 0 {
				op = Write
			}
			inflight++
			r := &Request{ID: n, Op: op, Size: 4096, Offset: int64(n * 5e6 % (1 << 38))}
			r.Submit = eng.Now()
			r.OnComplete = func(r *Request) {
				bytes += r.Size
				inflight--
				issue()
			}
			d.Submit(r)
		}
	}
	issue()
	eng.RunUntil(sim.Time(2 * sim.Second))
	bw := float64(bytes) / 2
	if bw > 0.9*(1<<30) {
		t.Fatalf("mixed R/W bandwidth %.2f GiB/s, want < 0.9 (interference)", bw/(1<<30))
	}
	if bw < 0.2*(1<<30) {
		t.Fatalf("mixed R/W bandwidth %.2f GiB/s suspiciously low", bw/(1<<30))
	}
}

func TestDeviceOptaneSymmetric(t *testing.T) {
	prof := OptaneProfile()
	mk := func(op Op) func(uint64) *Request {
		return func(i uint64) *Request {
			return &Request{ID: i, Op: op, Size: 4096, Offset: int64(i * 11e6 % (1 << 37))}
		}
	}
	eng, d := newTestDevice(t, prof)
	reads, _ := driveClosedLoop(eng, d, 128, mk(Read), sim.Time(sim.Second))
	eng2, d2 := newTestDevice(t, prof)
	d2.Precondition() // must make no difference on Optane
	writes, _ := driveClosedLoop(eng2, d2, 128, mk(Write), sim.Time(sim.Second))
	ratio := float64(reads) / float64(writes)
	if ratio < 0.85 || ratio > 1.18 {
		t.Fatalf("optane read/write asymmetry: %d vs %d", reads, writes)
	}
	if d2.Stats().GCEvents != 0 {
		t.Fatal("optane must not garbage collect")
	}
}

func TestDeviceMaxQDEnforced(t *testing.T) {
	prof := Flash980Profile()
	prof.MaxQD = 4
	eng, d := newTestDevice(t, prof)
	for i := 0; i < 4; i++ {
		d.Submit(read4K(uint64(i)))
	}
	if d.CanAccept() {
		t.Fatal("device should be full at MaxQD")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("submit past MaxQD did not panic")
		}
	}()
	d.Submit(read4K(99))
	_ = eng
}

func TestDeviceStatsAccounting(t *testing.T) {
	eng, d := newTestDevice(t, Flash980Profile())
	done := 0
	r := read4K(1)
	r.OnComplete = func(*Request) { done++ }
	var hook int
	d.OnDone = func(*Request) { hook++ }
	d.Submit(r)
	eng.RunUntil(sim.Time(10 * sim.Millisecond))
	if done != 1 || hook != 1 {
		t.Fatalf("completion callbacks: app=%d hook=%d", done, hook)
	}
	st := d.Stats()
	if st.ReadsCompleted != 1 || st.ReadBytes != 4096 || st.Inflight != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if r.Complete <= r.Dispatch {
		t.Fatal("timestamps not ordered")
	}
}

func TestProfileValidation(t *testing.T) {
	bad := Flash980Profile()
	bad.Channels = 0
	if _, err := New(sim.NewEngine(), bad, 1); err == nil {
		t.Fatal("invalid profile accepted")
	}
	bad = Flash980Profile()
	bad.GCChannels = bad.Channels
	if err := bad.Validate(); err == nil {
		t.Fatal("GC seizing all channels accepted")
	}
	if err := (&Profile{}).Validate(); err == nil {
		t.Fatal("zero profile accepted")
	}
}

func TestProfileByName(t *testing.T) {
	if got := ProfileNames(); !reflect.DeepEqual(got, []string{"flash980", "optane"}) {
		t.Fatalf("ProfileNames() = %v", got)
	}
	for _, name := range ProfileNames() {
		p, err := ProfileByName(name)
		if err != nil || p.Name != name {
			t.Fatalf("%s lookup failed: %v %q", name, err, p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	_, err := ProfileByName("whatever")
	if err == nil || !strings.Contains(err.Error(), "known: flash980, optane") {
		t.Fatalf("unknown profile name: err = %v, want one listing the known profiles", err)
	}
	if _, err := ProfileByName(""); err == nil {
		t.Fatal("empty profile name accepted")
	}
}

func TestRequestAccessors(t *testing.T) {
	r := &Request{Submit: 100, Queued: 150, Dispatch: 200, Complete: 500}
	if r.Latency() != 400 || r.DeviceLatency() != 300 || r.WaitLatency() != 100 {
		t.Fatal("latency accessors broken")
	}
	r.Reset()
	if r.Complete != 0 || r.heapIdx != -1 {
		t.Fatal("reset incomplete")
	}
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("op strings")
	}
}

func TestPrioClassRank(t *testing.T) {
	if ClassRT.Rank() >= ClassBE.Rank() || ClassBE.Rank() >= ClassIdle.Rank() {
		t.Fatal("class ranks not ordered")
	}
	if ClassNone.Rank() != ClassBE.Rank() {
		t.Fatal("none should rank with best-effort")
	}
}
