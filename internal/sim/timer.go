package sim

import "fmt"

// Timer is a reusable deadline that owns at most one pending event.
// Engine.Reschedule moves that event in place and Engine.Cancel removes
// it, so a superseded deadline is never pushed and never popped as a
// no-op. The zero value is an unarmed timer; embed it in the
// long-lived object whose deadline it tracks (a pipe, a throttled
// group, an in-flight request). A pending timer is referenced by the
// engine's timer heap and must not be copied or reset until it fires
// or is cancelled.
//
// Timers live in their own small indexed heap beside the plain event
// heap, so the plain path carries no back-pointer. Reschedule draws its
// sequence number from the same counter as AtCall, so an armed timer
// fires in exactly the (at, seq) slot an AtCall made at the same
// moment would occupy.
type Timer struct {
	at   Time
	seq  uint64
	call Callback
	arg  any
	eng  *Engine // engine that armed the timer
	idx  int     // 1-based slot in eng.timers; 0 = not pending
}

// Pending reports whether the timer has an event waiting to fire.
func (tm *Timer) Pending() bool { return tm.idx != 0 }

// Reschedule arms tm to run call(arg) at virtual time t, replacing any
// deadline it already had. Scheduling in the past runs the timer at
// the current time. A timer belongs to the engine that first armed it;
// arming it from another engine would corrupt both heaps and panics.
func (e *Engine) Reschedule(tm *Timer, t Time, call Callback, arg any) {
	if tm.eng != e {
		e.adopt(tm)
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	tm.at, tm.seq, tm.call, tm.arg = t, e.seq, call, arg
	if tm.idx == 0 {
		e.timers = append(e.timers, tm)
		tm.idx = len(e.timers)
		e.timerUp(tm.idx - 1)
		return
	}
	e.timerFix(tm.idx - 1)
}

// Cancel disarms tm. Cancelling an unarmed timer is a no-op.
func (e *Engine) Cancel(tm *Timer) {
	if tm.idx == 0 {
		return
	}
	if tm.eng != e {
		e.adopt(tm)
	}
	e.removeTimer(tm.idx - 1)
}

// adopt binds tm to e, panicking when another engine armed it first:
// sharded runs keep every component on one engine, so a cross-engine
// timer is a wiring bug.
func (e *Engine) adopt(tm *Timer) {
	if tm.eng != nil {
		panic(fmt.Sprintf("sim: timer armed on engine %p rescheduled from engine %p", tm.eng, e))
	}
	tm.eng = e
}

// timerLess orders timers by (at, seq), like the event heap. The
// event heap's branchless borrow compare measured no faster here, so
// the timer heap keeps plain branches.
func timerLess(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// timerFirst reports whether the timer heap's head precedes the event
// heap's head; both must be non-empty.
func (e *Engine) timerFirst() bool {
	tm, ev := e.timers[0], &e.events[0]
	if tm.at != ev.at {
		return tm.at < ev.at
	}
	return tm.seq < ev.seq
}

// removeTimer deletes the timer at heap slot i and marks it unarmed.
func (e *Engine) removeTimer(i int) {
	h := e.timers
	n := len(h) - 1
	h[i].idx = 0
	last := h[n]
	h[n] = nil
	e.timers = h[:n]
	if i < n {
		h[i] = last
		last.idx = i + 1
		e.timerFix(i)
	}
}

// timerFix restores heap order after slot i's key changed.
func (e *Engine) timerFix(i int) {
	if !e.timerUp(i) {
		e.timerDown(i)
	}
}

// timerUp sifts slot i toward the root and reports whether it moved.
func (e *Engine) timerUp(i int) bool {
	h := e.timers
	tm := h[i]
	start := i
	for i > 0 {
		p := (i - 1) >> 1
		if !timerLess(tm, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].idx = i + 1
		i = p
	}
	h[i] = tm
	tm.idx = i + 1
	return i != start
}

// timerDown sifts slot i toward the leaves.
func (e *Engine) timerDown(i int) {
	h := e.timers
	n := len(h)
	tm := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && timerLess(h[c+1], h[c]) {
			c++
		}
		if !timerLess(h[c], tm) {
			break
		}
		h[i] = h[c]
		h[i].idx = i + 1
		i = c
	}
	h[i] = tm
	tm.idx = i + 1
}
