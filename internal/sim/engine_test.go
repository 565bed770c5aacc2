package sim

import (
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine clock = %v, want 0", e.Now())
	}
	if e.Pending() != 0 || e.Processed() != 0 {
		t.Fatalf("new engine has pending/processed events")
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineFIFOWithinSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := NewEngine()
	fired := Time(-1)
	e.At(100, func() {
		e.At(50, func() { fired = e.Now() }) // in the past
	})
	e.Run()
	if fired != 100 {
		t.Fatalf("past event fired at %v, want clamped to 100", fired)
	}
}

func TestEngineRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++ })
	e.At(20, func() { ran++ })
	e.At(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("RunUntil(20) ran %d events, want 2", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("clock after RunUntil = %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.RunUntil(100)
	if ran != 3 || e.Now() != 100 {
		t.Fatalf("after second RunUntil: ran=%d now=%v", ran, e.Now())
	}
}

func TestEngineAfterIsRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(500, func() {
		e.After(25, func() { at = e.Now() })
	})
	e.Run()
	if at != 525 {
		t.Fatalf("After fired at %v, want 525", at)
	}
}

func TestEngineCascade(t *testing.T) {
	// Events scheduling events: a chain of N steps lands at N.
	e := NewEngine()
	const n = 1000
	count := 0
	var step func()
	step = func() {
		count++
		if count < n {
			e.After(1, step)
		}
	}
	e.After(1, step)
	e.Run()
	if count != n || e.Now() != n {
		t.Fatalf("cascade count=%d now=%v, want %d/%d", count, e.Now(), n, n)
	}
}

func TestEngineNegativeAfterClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(10, func() {
		e.After(-5, func() { fired = true })
	})
	e.RunUntil(10)
	if !fired {
		t.Fatal("negative After never fired at current time")
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(1_000_000)
	if tm.Add(500) != 1_000_500 {
		t.Fatalf("Add broken")
	}
	if tm.Sub(Time(400_000)) != 600_000 {
		t.Fatalf("Sub broken")
	}
	if Second.Seconds() != 1.0 {
		t.Fatalf("Seconds broken")
	}
	if Millisecond.Millis() != 1.0 || Microsecond.Micros() != 1.0 {
		t.Fatalf("unit conversions broken")
	}
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		2 * Second:      "2.000s",
		3 * Millisecond: "3.000ms",
		7 * Microsecond: "7.000us",
		42:              "42ns",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(d), got, want)
		}
	}
}

func TestDurationOfBytes(t *testing.T) {
	if d := DurationOfBytes(1<<30, float64(1<<30)); d != Second {
		t.Fatalf("1 GiB at 1 GiB/s = %v, want 1s", d)
	}
	if d := DurationOfBytes(0, 100); d != 0 {
		t.Fatalf("zero bytes = %v, want 0", d)
	}
	if d := DurationOfBytes(100, 0); d <= 0 {
		t.Fatalf("zero rate should return a huge sentinel, got %v", d)
	}
}

func TestEngineEventOrderProperty(t *testing.T) {
	// Property: for any set of scheduled times, execution times are
	// non-decreasing.
	f := func(times []uint16) bool {
		e := NewEngine()
		var seen []Time
		for _, tt := range times {
			at := Time(tt)
			e.At(at, func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refBefore is the plain branchy (at, seq) order the heap must match.
func refBefore(a, b eventKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// TestEngineHeapAgainstReferenceSort drives the inlined 4-ary heap
// directly through a long random push/pop interleaving and checks every
// popped event against a reference minimum search / sort over a
// mirrored slice — the property that the specialized heap pops in
// exactly (at, seq) order.
func TestEngineHeapAgainstReferenceSort(t *testing.T) {
	rng := NewRNG(42)
	e := NewEngine()
	var mirror []eventKey
	var seq uint64
	for op := 0; op < 20000; op++ {
		if len(mirror) == 0 || rng.Uint64()%3 != 0 {
			seq++
			ev := eventKey{at: Time(rng.Uint64() % 1024), seq: seq}
			e.push(ev)
			mirror = append(mirror, ev)
			continue
		}
		mi := 0
		for i := range mirror {
			if refBefore(mirror[i], mirror[mi]) {
				mi = i
			}
		}
		want := mirror[mi]
		mirror = append(mirror[:mi], mirror[mi+1:]...)
		got := e.pop()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("op %d: popped (at=%v seq=%d), reference min (at=%v seq=%d)",
				op, got.at, got.seq, want.at, want.seq)
		}
	}
	// Drain the remainder against a full reference sort.
	sort.Slice(mirror, func(i, j int) bool { return refBefore(mirror[i], mirror[j]) })
	for i, want := range mirror {
		got := e.pop()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("drain %d: popped (at=%v seq=%d), want (at=%v seq=%d)",
				i, got.at, got.seq, want.at, want.seq)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("heap not empty after drain: %d pending", e.Pending())
	}
}

// refEntry is one pending entry in TestEventHeapMatchesReference's
// reference model: its (at, seq) key and who fires (id >= 0: plain
// event id; id < 0: timer -1-id).
type refEntry struct {
	key eventKey
	id  int
}

// TestEventHeapMatchesReference runs random At/AtCall/Reschedule/
// Cancel/Step interleavings, including ones issued from inside firing
// callbacks, against a reference that keeps every pending entry in a
// plain slice and fires the minimum by refBefore. Deadlines are drawn
// with many exact and near ties, some in the past (clamped to now) and
// some far out, up to math.MaxInt64>>1, so the 128-bit compare sees
// both words decide. After every Step it checks the fired entry and
// clock, the pending count, and the payload table: every pending
// event holds one slot, and every free slot is zeroed so no fired
// callback or arg stays reachable.
func TestEventHeapMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := NewRNG(seed)
		e := NewEngine()
		var ref []refEntry
		var seq uint64
		tms := make([]Timer, 8)
		nextID := 0
		var fired []int

		draw := func() Time {
			now := e.Now()
			switch rng.Intn(16) {
			case 0, 1, 2, 3, 4, 5:
				return now
			case 6, 7, 8:
				return now.Add(Duration(rng.Intn(4)))
			case 9, 10:
				return now.Add(-Duration(rng.Intn(50) + 1))
			case 11:
				return Time(rng.Uint64() >> 2) // [0, math.MaxInt64>>1]
			}
			return now.Add(Duration(rng.Intn(1000)))
		}
		add := func(at Time, id int) {
			if now := e.Now(); at < now {
				at = now
			}
			seq++
			ref = append(ref, refEntry{eventKey{at: at, seq: seq}, id})
		}
		drop := func(id int) {
			for i := range ref {
				if ref[i].id == id {
					ref = append(ref[:i], ref[i+1:]...)
					return
				}
			}
		}
		var op func(nested bool)
		plainCB := func(arg any) {
			fired = append(fired, arg.(int))
			if rng.Intn(3) == 0 {
				op(true)
			}
		}
		timerCB := func(arg any) {
			fired = append(fired, -1-arg.(int))
			if rng.Intn(3) == 0 {
				op(true)
			}
		}
		op = func(nested bool) {
			switch k := rng.Intn(4); {
			case k == 0 || k == 1:
				id := nextID
				nextID++
				at := draw()
				add(at, id)
				if k == 0 {
					e.AtCall(at, plainCB, id)
				} else {
					e.At(at, func() { plainCB(id) })
				}
			case k == 2:
				j := rng.Intn(len(tms))
				at := draw()
				drop(-1 - j)
				add(at, -1-j)
				e.Reschedule(&tms[j], at, timerCB, j)
			default:
				j := rng.Intn(len(tms))
				drop(-1 - j)
				e.Cancel(&tms[j])
			}
		}
		step := func(where string) {
			mi := 0
			for i := range ref {
				if refBefore(ref[i].key, ref[mi].key) {
					mi = i
				}
			}
			want := ref[mi]
			ref = append(ref[:mi], ref[mi+1:]...)
			if at, ok := e.PeekNext(); !ok || at != want.key.at {
				t.Fatalf("seed %d %s: PeekNext = %d,%v, reference head at %d", seed, where, at, ok, want.key.at)
			}
			fired = fired[:0]
			if !e.Step() {
				t.Fatalf("seed %d %s: Step ran nothing with %d pending in the reference", seed, where, len(ref)+1)
			}
			if len(fired) == 0 || fired[0] != want.id || e.Now() != want.key.at {
				t.Fatalf("seed %d %s: fired %v at %d, reference (id %d at %d seq %d)",
					seed, where, fired, e.Now(), want.id, want.key.at, want.key.seq)
			}
			if e.Pending() != len(ref) {
				t.Fatalf("seed %d %s: Pending = %d, reference %d", seed, where, e.Pending(), len(ref))
			}
			if live := len(e.slots) - len(e.free); live != len(e.events) {
				t.Fatalf("seed %d %s: %d slots - %d free = %d, but %d events pending",
					seed, where, len(e.slots), len(e.free), live, len(e.events))
			}
			for _, s := range e.free {
				if p := e.slots[s]; p.call != nil || p.arg != nil {
					t.Fatalf("seed %d %s: free slot %d still holds its payload", seed, where, s)
				}
			}
		}

		for n := 0; n < 20000; n++ {
			// Alternate growing and shrinking phases so the heap runs
			// both deep (full four-child levels) and nearly empty.
			schedule := 7
			if n/1000%2 == 1 {
				schedule = 3
			}
			if len(ref) == 0 || rng.Intn(10) < schedule {
				op(false)
				continue
			}
			step("op " + strconv.Itoa(n))
		}
		for len(ref) > 0 {
			step("drain")
		}
		if e.Pending() != 0 {
			t.Fatalf("seed %d: %d pending after the reference drained", seed, e.Pending())
		}
	}
}
