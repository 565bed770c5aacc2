package sim

import "fmt"

// Timer is a reusable deadline that owns at most one pending event.
// Engine.Reschedule moves that event in place and Engine.Cancel removes
// it, so a superseded deadline is never pushed and never popped as a
// no-op. The zero value is an unarmed timer; embed it in the
// long-lived object whose deadline it tracks (a pipe, a throttled
// group, an in-flight request). A pending timer is referenced by the
// engine's timer slot table and must not be copied or reset until it
// fires or is cancelled.
//
// An armed timer holds a slot in its engine's timer slot table, which
// keeps the callback, its argument and a pointer back to the Timer; the
// timer heap orders eventKeys naming those slots, so sifting never
// touches a Timer. Reschedule draws its sequence number from the same
// counter as AtCall, so an armed timer fires in exactly the (at, seq)
// slot an AtCall made at the same moment would occupy.
type Timer struct {
	eng  *Engine // engine that armed the timer
	slot int     // 1 + index in eng.tslots while pending; 0 = not pending
}

// timerSlot is what an armed timer runs, call(arg), and the Timer to
// disarm when it fires or is cancelled.
type timerSlot struct {
	payload
	tm *Timer
}

// Pending reports whether the timer has an event waiting to fire.
func (tm *Timer) Pending() bool { return tm.slot != 0 }

// Reschedule arms tm to run call(arg) at virtual time t, replacing any
// deadline it already had: an armed timer's key moves in place, found
// through tpos, and an unarmed one takes a free slot. Scheduling in the
// past runs the timer at the current time. A timer belongs to the
// engine that first armed it; arming it from another engine would
// corrupt both heaps and panics.
func (e *Engine) Reschedule(tm *Timer, t Time, call Callback, arg any) {
	if tm.eng != e {
		e.adopt(tm)
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	if tm.slot != 0 {
		slot := tm.slot - 1
		e.tslots[slot].payload = payload{call: call, arg: arg}
		e.tpos[slot] = fix(e.timers, e.tpos, e.tpos[slot], eventKey{at: t, seq: e.seq, slot: slot})
		return
	}
	var slot int
	if n := len(e.tfree) - 1; n >= 0 {
		slot = e.tfree[n]
		e.tfree = e.tfree[:n]
	} else {
		slot = len(e.tslots)
		e.tslots = append(e.tslots, timerSlot{})
		e.tpos = append(e.tpos, 0)
	}
	e.tslots[slot] = timerSlot{payload: payload{call: call, arg: arg}, tm: tm}
	tm.slot = slot + 1
	e.timers = append(e.timers, eventKey{})
	e.tpos[slot] = siftUp(e.timers, e.tpos, len(e.timers)-1, eventKey{at: t, seq: e.seq, slot: slot})
}

// Cancel disarms tm. Cancelling an unarmed timer is a no-op.
func (e *Engine) Cancel(tm *Timer) {
	if tm.slot == 0 {
		return
	}
	if tm.eng != e {
		e.adopt(tm)
	}
	e.removeTimer(e.tpos[tm.slot-1])
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

// removeTimer deletes the key at timer-heap index i, disarms its Timer
// and frees its slot, and returns what the timer would have run. The
// last key fills the hole and sifts whichever way restores order.
func (e *Engine) removeTimer(i int) payload {
	h := e.timers
	slot := h[i].slot
	n := len(h) - 1
	last := h[n]
	e.timers = h[:n]
	if i < n {
		e.tpos[last.slot] = fix(h[:n], e.tpos, i, last)
	}
	s := &e.tslots[slot]
	p := s.payload
	s.tm.slot = 0
	*s = timerSlot{} // release the callback, arg and Timer to the GC
	e.tfree = append(e.tfree, slot)
	return p
}
