package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"isolbench/internal/device"
	"isolbench/internal/obs/attr"
	"isolbench/internal/sim"
)

// req builds a completed request with a full set of stage timestamps.
func req(id uint64, cg int, op device.Op, size int64, stamps [6]sim.Time) *device.Request {
	return &device.Request{
		ID: id, Cgroup: cg, AppID: 1, Op: op, Size: size,
		Submit: stamps[0], Queued: stamps[1], SchedOut: stamps[2],
		Dispatch: stamps[3], Service: stamps[4], Complete: stamps[5],
	}
}

func TestSpanOfTilesLatency(t *testing.T) {
	r := req(7, 3, device.Read, 4096, [6]sim.Time{100, 250, 900, 1000, 1500, 4100})
	sp := SpanOf(r)
	want := [NumStages]sim.Duration{150, 650, 100, 500, 2600}
	if sp.Stages != want {
		t.Fatalf("stages = %v, want %v", sp.Stages, want)
	}
	if sp.Total() != r.Latency() {
		t.Fatalf("stage sum %v != end-to-end latency %v", sp.Total(), r.Latency())
	}
}

func TestSpanOfClampsMissingStamps(t *testing.T) {
	// A noop-path request never gets SchedOut/Service stamps (zero):
	// those stages must collapse to zero, never go negative, and the
	// total must still equal the end-to-end latency.
	r := &device.Request{
		ID: 1, Op: device.Read, Size: 512,
		Submit: 1000, Queued: 1200, Dispatch: 1300, Complete: 5000,
	}
	sp := SpanOf(r)
	for st, d := range sp.Stages {
		if d < 0 {
			t.Fatalf("stage %v negative: %v", Stage(st), d)
		}
	}
	if sp.Stages[StageSched] != 0 || sp.Stages[StageDevQueue] != 0 {
		t.Fatalf("missing stamps not collapsed: %v", sp.Stages)
	}
	if sp.Total() != r.Latency() {
		t.Fatalf("stage sum %v != latency %v", sp.Total(), r.Latency())
	}
}

func TestStatFileGolden(t *testing.T) {
	eng := sim.NewEngine()
	o := New(eng)
	o.Completed("259:0", req(1, 2, device.Read, 4096, [6]sim.Time{0, 0, 0, 0, 0, 100}))
	o.Completed("259:0", req(2, 2, device.Read, 8192, [6]sim.Time{0, 0, 0, 0, 0, 100}))
	o.Completed("259:0", req(3, 2, device.Write, 4096, [6]sim.Time{0, 0, 0, 0, 0, 100}))
	o.Completed("259:1", req(4, 2, device.Write, 512, [6]sim.Time{0, 0, 0, 0, 0, 100}))
	o.SetGauge("259:0", 2, "cost.debt_ns", 1500)
	o.SetGauge("259:0", 2, "lat.depth", 32)

	got, ok := o.StatFile(2)
	if !ok {
		t.Fatal("StatFile reported no traffic")
	}
	want := "259:0 rbytes=12288 wbytes=4096 rios=2 wios=1 dbytes=0 dios=0 cost.debt_ns=1500 lat.depth=32\n" +
		"259:1 rbytes=0 wbytes=512 rios=0 wios=1 dbytes=0 dios=0"
	if got != want {
		t.Fatalf("io.stat:\n got: %q\nwant: %q", got, want)
	}
	if _, ok := o.StatFile(99); ok {
		t.Fatal("unknown cgroup reported traffic")
	}
}

func TestPressureGoldenAndPSIMath(t *testing.T) {
	eng := sim.NewEngine()
	o := New(eng)

	// t=0: one request enters a throttle queue, nothing running -> the
	// cgroup is in full stall.
	o.ThrottleBegin(5)
	// t=5s: the request is released.
	eng.RunUntil(sim.Time(5 * sim.Second))
	o.ThrottleEnd(5)
	// t=10s: read the file (folds 5 s of no-stall).
	eng.RunUntil(sim.Time(10 * sim.Second))

	got, ok := o.PressureFile(5)
	if !ok {
		t.Fatal("PressureFile reported no state")
	}
	// Hand-computed: 5 s stalled then 5 s clear against the 10 s window:
	//   after stall:  avg = 1 - exp(-0.5)
	//   after clear:  avg = (1 - exp(-0.5)) * exp(-0.5)
	wantAvg10 := (1 - math.Exp(-0.5)) * math.Exp(-0.5)
	snap, ok := o.PSISnapshot(5)
	if !ok {
		t.Fatal("PSISnapshot missing")
	}
	if d := math.Abs(snap.SomeAvg[0] - wantAvg10); d > 1e-12 {
		t.Fatalf("SomeAvg10 = %v, want %v (diff %v)", snap.SomeAvg[0], wantAvg10, d)
	}
	if snap.SomeAvg[0] != snap.FullAvg[0] {
		t.Fatalf("full != some despite nothing running: %v vs %v", snap.FullAvg[0], snap.SomeAvg[0])
	}
	if snap.SomeTotal != 5*sim.Second || snap.FullTotal != 5*sim.Second {
		t.Fatalf("stall totals = %v / %v, want 5s each", snap.SomeTotal, snap.FullTotal)
	}
	want := "some avg10=23.87 avg60=7.36 avg300=1.63 total=5000000\n" +
		"full avg10=23.87 avg60=7.36 avg300=1.63 total=5000000"
	if got != want {
		t.Fatalf("io.pressure:\n got: %q\nwant: %q", got, want)
	}
}

func TestPSISomeButNotFull(t *testing.T) {
	eng := sim.NewEngine()
	o := New(eng)

	// One request running and one throttled: "some" accrues, "full"
	// does not.
	o.RunBegin(8)
	o.ThrottleBegin(8)
	eng.RunUntil(sim.Time(2 * sim.Second))
	snap, _ := o.PSISnapshot(8)
	if snap.SomeTotal != 2*sim.Second {
		t.Fatalf("SomeTotal = %v, want 2s", snap.SomeTotal)
	}
	if snap.FullTotal != 0 {
		t.Fatalf("FullTotal = %v, want 0 while a request runs", snap.FullTotal)
	}

	// The running request completes: now the stall is full.
	o.Completed("259:0", req(1, 8, device.Read, 4096,
		[6]sim.Time{0, 0, 0, 0, 0, sim.Time(2 * sim.Second)}))
	eng.RunUntil(sim.Time(3 * sim.Second))
	snap, _ = o.PSISnapshot(8)
	if snap.FullTotal != 1*sim.Second {
		t.Fatalf("FullTotal = %v, want 1s after runner completed", snap.FullTotal)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	o := New(eng)
	o.Completed("259:0", req(1, 2, device.Read, 4096, [6]sim.Time{100, 250, 900, 1000, 1500, 4100}))
	o.Completed("259:0", req(2, 3, device.Write, 8192, [6]sim.Time{200, 200, 200, 300, 300, 900}))
	o.Sample("iocost.vrate", -1, 1.25)

	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
			Args map[string]interface{}
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// Per-request "X" slices must tile contiguously and sum to the
	// end-to-end latency (here request 1: 4000 ns = 4 us).
	var sum float64
	end := 100.0 * usPerNs
	meta, counters := 0, 0
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "C":
			counters++
		case "X":
			if ev.PID != 2 {
				continue
			}
			if math.Abs(ev.Ts-end) > 1e-9 {
				t.Fatalf("slice %q at ts=%v, want contiguous at %v", ev.Name, ev.Ts, end)
			}
			end = ev.Ts + ev.Dur
			sum += ev.Dur
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if math.Abs(sum-4.0) > 1e-9 {
		t.Fatalf("stage slices sum to %v us, want 4.0", sum)
	}
	if meta != 2 || counters != 1 {
		t.Fatalf("meta=%d counters=%d, want 2/1", meta, counters)
	}
}

func TestSpansJSONLRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	o := New(eng)
	o.Completed("259:0", req(9, 4, device.Write, 512, [6]sim.Time{10, 20, 30, 40, 50, 60}))

	var buf bytes.Buffer
	if err := o.WriteSpansJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var sj SpanJSON
	if err := json.Unmarshal(buf.Bytes(), &sj); err != nil {
		t.Fatal(err)
	}
	if sj.ID != 9 || sj.Cgroup != 4 || sj.Op != "w" || sj.Total != 50 {
		t.Fatalf("span JSON = %+v", sj)
	}
	var sum int64
	for _, d := range sj.Stages {
		sum += d
	}
	if sum != sj.Total {
		t.Fatalf("exported stages sum to %d, total says %d", sum, sj.Total)
	}
}

func TestSpanRingBounds(t *testing.T) {
	eng := sim.NewEngine()
	o := NewWithConfig(eng, Config{SpanCap: 4})
	for i := 0; i < 10; i++ {
		o.Completed("259:0", req(uint64(i), 1, device.Read, 4096,
			[6]sim.Time{sim.Time(i), sim.Time(i), sim.Time(i), sim.Time(i), sim.Time(i), sim.Time(i + 1)}))
	}
	spans := o.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, cap is 4", len(spans))
	}
	if o.SpansDropped() != 6 {
		t.Fatalf("dropped = %d, want 6", o.SpansDropped())
	}
	// The latest window is kept, oldest evicted.
	if spans[0].ID != 6 || spans[3].ID != 9 {
		t.Fatalf("wrong window kept: %d..%d", spans[0].ID, spans[3].ID)
	}
	// io.stat still counts everything, only the span detail is bounded.
	st, _ := o.StatFile(1)
	if want := "259:0 rbytes=40960 wbytes=0 rios=10 wios=0 dbytes=0 dios=0"; st != want {
		t.Fatalf("io.stat = %q", st)
	}
}

func TestSeriesRingBounds(t *testing.T) {
	eng := sim.NewEngine()
	o := NewWithConfig(eng, Config{SeriesCap: 3})
	for i := 0; i < 5; i++ {
		o.Sample("vrate", -1, float64(i))
	}
	s := o.Series("vrate", -1)
	if s == nil || s.Len() != 3 || s.Dropped() != 2 {
		t.Fatalf("series state: %+v", s)
	}
	pts := s.Points()
	if pts[0].V != 2 || pts[2].V != 4 {
		t.Fatalf("wrong window kept: %v", pts)
	}
}

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer claims enabled")
	}
	o.ThrottleBegin(1)
	o.ThrottleEnd(1)
	o.RunBegin(1)
	o.Completed("259:0", req(1, 1, device.Read, 4096, [6]sim.Time{0, 0, 0, 0, 0, 1}))
	o.SetGauge("259:0", 1, "k", 1)
	o.Sample("s", -1, 1)
	if o.Spans() != nil || o.SpansDropped() != 0 || o.AllSeries() != nil {
		t.Fatal("nil observer returned data")
	}
	if _, ok := o.StatFile(1); ok {
		t.Fatal("nil observer served io.stat")
	}
	if _, ok := o.PressureFile(1); ok {
		t.Fatal("nil observer served io.pressure")
	}
	if o.Summary() != nil {
		t.Fatal("nil observer produced a summary")
	}
	if err := o.WriteChromeTrace(nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryRows(t *testing.T) {
	eng := sim.NewEngine()
	o := New(eng)
	o.CgroupName = func(id int) string { return "/isolbench.slice/g" }
	o.Completed("259:0", req(1, 2, device.Read, 4096, [6]sim.Time{0, 10, 20, 30, 40, 50}))
	rows := o.Summary()
	if len(rows) != int(NumStages)+1 {
		t.Fatalf("rows = %d, want %d", len(rows), int(NumStages)+1)
	}
	last := rows[len(rows)-1]
	if last.Stage != NumStages || last.Count != 1 || last.MeanNs != 50 {
		t.Fatalf("end-to-end row = %+v", last)
	}
	if rows[0].Name != "/isolbench.slice/g" {
		t.Fatalf("name not resolved: %q", rows[0].Name)
	}
}

// BenchmarkObsOverhead pins the cost of the hook sites. The disabled
// path (nil observer) is the one every simulation pays when
// observability is off — it must stay a branch, allocation-free.
func BenchmarkObsOverhead(b *testing.B) {
	r := req(1, 1, device.Read, 4096, [6]sim.Time{0, 10, 20, 30, 40, 50})
	b.Run("disabled", func(b *testing.B) {
		var o *Observer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o.ThrottleBegin(1)
			o.RunBegin(1)
			o.ThrottleEnd(1)
			o.Completed("259:0", r)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		eng := sim.NewEngine()
		o := New(eng)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o.ThrottleBegin(1)
			o.RunBegin(1)
			o.ThrottleEnd(1)
			o.Completed("259:0", r)
		}
	})
}

// TestIncidentExport verifies run-level incidents (watchdog aborts,
// cancellations, invariant violations) are recorded in order and
// appended to the spans JSONL export, and that a nil observer swallows
// them safely.
func TestIncidentExport(t *testing.T) {
	var nilObs *Observer
	nilObs.RecordIncident(IncidentWatchdog, "ignored")
	if nilObs.Incidents() != nil {
		t.Fatal("nil observer returned incidents")
	}

	eng := sim.NewEngine()
	o := New(eng)
	eng.At(sim.Time(5), func() {
		o.RecordIncident(IncidentWatchdog, "sim watchdog: event budget exhausted")
	})
	eng.Run()
	o.RecordIncident(IncidentInvariant, "paranoid: 1 invariant violation(s)")

	ins := o.Incidents()
	if len(ins) != 2 || ins[0].Kind != IncidentWatchdog || ins[1].Kind != IncidentInvariant {
		t.Fatalf("incidents = %+v", ins)
	}
	if ins[0].At != sim.Time(5) {
		t.Fatalf("incident stamped at %v, want the engine clock 5", ins[0].At)
	}

	var buf bytes.Buffer
	if err := o.WriteSpansJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("export has %d lines, want 2 incident lines", len(lines))
	}
	var ij IncidentJSON
	if err := json.Unmarshal(lines[0], &ij); err != nil {
		t.Fatal(err)
	}
	if ij.Incident != IncidentWatchdog || ij.At != sim.Time(5) {
		t.Fatalf("incident JSON = %+v", ij)
	}
}

// TestSpanRingCompactRecords pins the ring's memory layout (a 64-byte
// record, a 12-byte charge) and that values too large for it survive
// exactly: a span with a 5 s stage and a 5 s blame charge reads back
// unchanged, and its exact values are released when it is evicted.
func TestSpanRingCompactRecords(t *testing.T) {
	if rs, cs := unsafe.Sizeof(spanRec{}), unsafe.Sizeof(charge{}); rs != 64 || cs != 12 {
		t.Fatalf("span record %d bytes, charge %d bytes; want 64 and 12", rs, cs)
	}
	eng := sim.NewEngine()
	o := NewWithConfig(eng, Config{SpanCap: 2})
	tr := attr.NewTracker(eng, attr.Config{})
	long := 5 * sim.Second
	r := &device.Request{ID: 1, Cgroup: 2, Op: device.Write, Size: 1 << 20,
		Queued: sim.Time(long), Complete: sim.Time(long + sim.Millisecond), Blame: tr.NewReq()}
	tr.ChargeInterval(r.Blame, attr.LayerThrottle, 3, long)
	eng.RunUntil(r.Complete)
	o.Completed("259:0", r)
	want := SpanOf(r)
	if got := o.Spans(); len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("wide span read back as %+v, want %+v", got, want)
	}
	for i := 2; i <= 3; i++ {
		at := r.Complete.Add(sim.Duration(i) * sim.Microsecond)
		eng.RunUntil(at)
		o.Completed("259:0", &device.Request{ID: uint64(i), Cgroup: 2, Size: 4096, Submit: at - 100, Complete: at})
	}
	if got := o.Spans(); len(got) != 2 || got[0].ID != 2 || len(o.spans.wide) != 0 || o.spans.aLen != 0 {
		t.Fatalf("after eviction: spans %+v, %d wide entries, %d arena charges", got, len(o.spans.wide), o.spans.aLen)
	}
}
