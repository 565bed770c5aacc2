package sim

import (
	"errors"
	"strings"
	"testing"
)

// firing is one live callback as the script saw it.
type firing struct {
	at Time
	id int // >= 0: plain event id; < 0: timer -1-id
}

// refArm is one reference-model timer event: the generation it was
// armed under rides in the arg, the pattern Timer replaces.
type refArm struct {
	j   int
	gen uint64
}

// timerScript drives one engine through a random interleaving of
// AtCall, Reschedule and Cancel issued from inside live callbacks. The
// real model uses Timers; the reference model (ref) implements every
// timer as AtCall plus a generation check, leaving superseded events in
// the heap to pop as no-ops. Both draw the same random stream as long
// as their live callbacks fire in the same order.
type timerScript struct {
	e      *Engine
	rng    *RNG
	ref    bool
	budget int
	log    []firing

	timers []Timer  // real model
	gens   []uint64 // reference model: current generation per timer
	stale  int      // reference model: superseded events still queued
	dead   uint64   // reference model: superseded events popped
	plain  map[int]Time
	due    []Time // shadow deadline per timer, valid while armed
	armed  []bool
	nextID int

	plainCB, timerCB, refCB Callback
}

func newTimerScript(seed uint64, ref bool, nTimers, budget int) *timerScript {
	s := &timerScript{
		e: NewEngine(), rng: NewRNG(seed), ref: ref, budget: budget,
		timers: make([]Timer, nTimers), gens: make([]uint64, nTimers),
		plain: make(map[int]Time), due: make([]Time, nTimers), armed: make([]bool, nTimers),
	}
	s.plainCB = func(arg any) {
		id := arg.(int)
		delete(s.plain, id)
		s.fire(id)
	}
	s.timerCB = func(arg any) {
		j := arg.(int)
		s.armed[j] = false
		s.fire(-1 - j)
	}
	s.refCB = func(arg any) {
		a := arg.(*refArm)
		if a.gen != s.gens[a.j] {
			s.dead++
			s.stale--
			return
		}
		s.armed[a.j] = false
		s.fire(-1 - a.j)
	}
	return s
}

// delay draws an offset from now: mostly ahead, sometimes the same
// instant, sometimes in the past (which the engine clamps to now).
func (s *timerScript) delay() Duration {
	switch s.rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return -Duration(s.rng.Intn(20) + 1)
	}
	return Duration(s.rng.Intn(60) + 1)
}

func (s *timerScript) clamp(t Time) Time {
	if now := s.e.Now(); t < now {
		return now
	}
	return t
}

func (s *timerScript) fire(id int) {
	s.log = append(s.log, firing{s.e.Now(), id})
	for k := s.rng.Intn(4); k > 0; k-- {
		s.op()
	}
}

// op issues one random scheduling operation.
func (s *timerScript) op() {
	if s.budget == 0 {
		return
	}
	s.budget--
	now := s.e.Now()
	switch s.rng.Intn(3) {
	case 0:
		id := s.nextID
		s.nextID++
		t := now.Add(s.delay())
		s.plain[id] = s.clamp(t)
		s.e.AtCall(t, s.plainCB, id)
	case 1:
		j := s.rng.Intn(len(s.timers))
		t := now.Add(s.delay())
		if s.ref {
			if s.armed[j] {
				s.stale++
			}
			s.gens[j]++
			s.e.AtCall(t, s.refCB, &refArm{j: j, gen: s.gens[j]})
		} else {
			s.e.Reschedule(&s.timers[j], t, s.timerCB, j)
		}
		s.armed[j], s.due[j] = true, s.clamp(t)
	default:
		j := s.rng.Intn(len(s.timers))
		if s.ref {
			if s.armed[j] {
				s.stale++
			}
			s.gens[j]++
		} else {
			s.e.Cancel(&s.timers[j])
		}
		s.armed[j] = false
	}
}

// live reports the shadow model's pending count and earliest deadline.
func (s *timerScript) live() (n int, next Time, ok bool) {
	consider := func(t Time) {
		if !ok || t < next {
			next, ok = t, true
		}
		n++
	}
	for _, t := range s.plain {
		consider(t)
	}
	for j, a := range s.armed {
		if a {
			consider(s.due[j])
		}
	}
	return n, next, ok
}

// run drives the script through random RunUntil/RunBefore horizons,
// checking the engine's view of pending work against the shadow model
// after each one, then drains it.
func (s *timerScript) run(t *testing.T, driverSeed uint64) {
	t.Helper()
	drv := NewRNG(driverSeed)
	for i := 0; i < 12; i++ {
		s.op()
	}
	for round := 0; round < 300; round++ {
		h := s.e.Now().Add(Duration(drv.Intn(40)))
		before := drv.Intn(2) == 0
		if before {
			s.e.RunBefore(h)
		} else {
			s.e.RunUntil(h)
		}
		if s.e.Now() != h {
			t.Fatalf("round %d: clock %d after running to horizon %d", round, s.e.Now(), h)
		}
		n, next, ok := s.live()
		if got := s.e.Pending() - s.stale; got != n {
			t.Fatalf("round %d (ref=%v): Pending %d (minus %d stale), shadow %d", round, s.ref, s.e.Pending(), s.stale, n)
		}
		if s.ref {
			continue
		}
		at, pok := s.e.PeekNext()
		if pok != ok || (ok && at != next) {
			t.Fatalf("round %d: PeekNext (%d, %v), shadow earliest (%d, %v)", round, at, pok, next, ok)
		}
		if ok && (next < h || (!before && next == h)) {
			t.Fatalf("round %d: deadline %d left pending past horizon %d (before=%v)", round, next, h, before)
		}
	}
	s.budget = 0
	s.e.Run()
	if s.e.Pending() != 0 {
		t.Fatalf("ref=%v: %d pending after drain", s.ref, s.e.Pending())
	}
}

// TestTimerMatchesGenerationReference: for random interleavings, the
// in-place timers fire the same live callbacks in the same (now, order)
// sequence as the old AtCall-plus-generation pattern, and the engine
// processes exactly the reference's dead pops fewer events.
func TestTimerMatchesGenerationReference(t *testing.T) {
	var totalDead uint64
	for seed := uint64(1); seed <= 40; seed++ {
		nTimers := 1 + int(seed%9)
		real := newTimerScript(seed, false, nTimers, 4000)
		real.run(t, seed*7+1)
		ref := newTimerScript(seed, true, nTimers, 4000)
		ref.run(t, seed*7+1)

		if len(real.log) != len(ref.log) {
			t.Fatalf("seed %d: %d live firings, reference %d", seed, len(real.log), len(ref.log))
		}
		for i := range real.log {
			if real.log[i] != ref.log[i] {
				t.Fatalf("seed %d: firing %d = %+v, reference %+v", seed, i, real.log[i], ref.log[i])
			}
		}
		if ref.stale != 0 {
			t.Fatalf("seed %d: reference left %d stale events after drain", seed, ref.stale)
		}
		if got := ref.e.Processed() - real.e.Processed(); got != ref.dead {
			t.Fatalf("seed %d: processed %d vs reference %d: gap %d, reference dead pops %d",
				seed, real.e.Processed(), ref.e.Processed(), got, ref.dead)
		}
		totalDead += ref.dead
	}
	if totalDead == 0 {
		t.Fatal("the scripts never superseded an armed timer; the property is vacuous")
	}
}

// TestTimerRescheduleAndCancel pins the basic contract: a rescheduled
// timer fires once at its last deadline, a cancelled one never fires,
// and the zero Timer is unarmed.
func TestTimerRescheduleAndCancel(t *testing.T) {
	e := NewEngine()
	var tm, gone Timer
	if tm.Pending() || e.Pending() != 0 {
		t.Fatal("zero timer is armed")
	}
	var fired []Time
	cb := func(any) { fired = append(fired, e.Now()) }
	e.Reschedule(&tm, 50, cb, nil)
	e.Reschedule(&tm, 20, cb, nil)
	e.Reschedule(&tm, 30, cb, nil)
	e.Reschedule(&gone, 10, cb, nil)
	e.Cancel(&gone)
	e.Cancel(&gone) // cancelling an unarmed timer is a no-op
	if at, _ := e.PeekNext(); !tm.Pending() || at != 30 || e.Pending() != 1 {
		t.Fatalf("pending=%v next=%d engine pending=%d", tm.Pending(), at, e.Pending())
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 30 || tm.Pending() || e.Processed() != 1 {
		t.Fatalf("fired %v, pending=%v, processed %d", fired, tm.Pending(), e.Processed())
	}
	// Rescheduling into the past clamps to now, like AtCall.
	e.Reschedule(&tm, 5, cb, nil)
	e.Run()
	if fired[1] != 30 {
		t.Fatalf("past deadline fired at %v, want clamped to 30", fired[1])
	}
}

// TestTimerForeignEnginePanics: a timer belongs to the engine that
// armed it; touching it from another engine is a wiring bug that would
// corrupt both heaps.
func TestTimerForeignEnginePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "rescheduled from engine") {
				t.Fatalf("%s: recovered %q, want the foreign-engine panic", name, msg)
			}
		}()
		f()
	}
	a, b := NewEngine(), NewEngine()
	var tm Timer
	nop := func(any) {}
	a.Reschedule(&tm, 10, nop, nil)
	mustPanic("Reschedule while pending", func() { b.Reschedule(&tm, 20, nop, nil) })
	mustPanic("Cancel while pending", func() { b.Cancel(&tm) })
	a.Run()
	mustPanic("Reschedule after firing", func() { b.Reschedule(&tm, 20, nop, nil) })
	if b.Pending() != 0 || a.Pending() != 0 {
		t.Fatalf("a rejected reschedule left events: a=%d b=%d", a.Pending(), b.Pending())
	}
}

// TestWatchdogSeesTimerHeads: the clock budget, the stall detector and
// the paranoid monotonic-clock check all apply to timers, which sit
// outside the plain event heap.
func TestWatchdogSeesTimerHeads(t *testing.T) {
	t.Run("MaxClock", func(t *testing.T) {
		e := NewEngine()
		e.SetWatchdog(Watchdog{MaxClock: 100})
		var tm Timer
		e.Reschedule(&tm, 200, func(any) { t.Error("timer past MaxClock ran") }, nil)
		e.RunUntil(1000)
		if err := e.Err(); !errors.Is(err, ErrWatchdog) || !strings.Contains(err.Error(), "clock budget") {
			t.Fatalf("err = %v, want the clock-budget abort", err)
		}
	})
	t.Run("StallEvents", func(t *testing.T) {
		e := NewEngine()
		e.SetWatchdog(Watchdog{StallEvents: 50})
		var tm Timer
		var spin Callback
		spin = func(any) { e.Reschedule(&tm, e.Now(), spin, nil) }
		e.Reschedule(&tm, 10, spin, nil)
		e.RunUntil(Time(Second))
		if err := e.Err(); !errors.Is(err, ErrWatchdog) || !strings.Contains(err.Error(), "livelock") {
			t.Fatalf("err = %v, want the livelock abort", err)
		}
		if e.Processed() > 60 {
			t.Fatalf("livelock ran %d timer firings before tripping", e.Processed())
		}
	})
	t.Run("Paranoid", func(t *testing.T) {
		e := NewEngine()
		e.SetWatchdog(Watchdog{Paranoid: true})
		var tm Timer
		e.At(Time(Millisecond), func() {})
		e.Reschedule(&tm, Time(2*Millisecond), func(any) {}, nil)
		if !e.Step() {
			t.Fatal("first event did not run")
		}
		// Corrupt the timer the way a buggy heap would: a deadline
		// before the current clock (Reschedule clamps, so write it
		// directly).
		tm.at = Time(Microsecond)
		if e.Step() {
			t.Fatal("engine fired a timer stamped before now")
		}
		if err := e.Err(); !errors.Is(err, ErrWatchdog) || !strings.Contains(err.Error(), "clock went backwards") {
			t.Fatalf("err = %v, want the backwards-clock abort", err)
		}
	})
	t.Run("MaxEvents", func(t *testing.T) {
		e := NewEngine()
		e.SetWatchdog(Watchdog{MaxEvents: 10})
		var tm Timer
		var tick Callback
		tick = func(any) { e.Reschedule(&tm, e.Now().Add(Microsecond), tick, nil) }
		e.Reschedule(&tm, 0, tick, nil)
		e.RunUntil(Time(Second))
		if !errors.Is(e.Err(), ErrWatchdog) || e.Processed() != 10 {
			t.Fatalf("err = %v after %d timer firings, want the 10-event budget", e.Err(), e.Processed())
		}
	})
}
