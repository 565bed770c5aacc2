package sim

import "math/bits"

// Callback is the engine's event entry point: a persistent function
// that receives the argument it was scheduled with. Hot paths schedule
// a long-lived Callback via AtCall/AfterCall/Reschedule instead of
// building a fresh closure per event — the engine stores arg inline,
// and pointer-shaped args (pointers, funcs, maps, channels) ride in the
// any without allocating, so steady-state scheduling is
// allocation-free. A deadline that can be superseded belongs in a
// Timer, which moves its one pending event instead of leaving a stale
// one behind.
type Callback func(arg any)

// runThunk adapts a plain func() scheduled through At/After to the
// Callback shape. A func() stored in an any is pointer-shaped, so the
// adaptation costs nothing.
func runThunk(arg any) { arg.(func())() }

// eventKey is one entry of the plain-event heap: the (at, seq) order
// key plus the index of the event's payload slot. It holds no
// pointers, so sifting keys through the heap copies plain words and
// never runs the GC write barrier. Events at the same instant fire in
// scheduling order (seq breaks ties) so runs are deterministic.
type eventKey struct {
	at   Time
	seq  uint64
	slot int
}

// payload is what a plain event runs: call(arg). It stays in its slot
// while the event's key moves through the heap.
type payload struct {
	call Callback
	arg  any
}

// Engine is a deterministic discrete-event simulator. The zero value is
// ready to use; time starts at 0.
//
// The pending-event queue is an inlined 4-ary min-heap of eventKeys,
// ordered by (at, seq). Each key names a slot in a payload table that
// holds the event's callback and argument; freed slots are reused LIFO
// through a free list. The wide fan-out halves the sift-down depth of
// a binary heap — the hot operation, since the engine's steady state
// is pop-one, push-a-few — and the pointer-free keys keep each sift
// level to plain word copies. Because (at, seq) is a total order (seq
// is unique), any heap shape pops events in exactly the same sequence.
//
// The order compares (at, seq) as one 128-bit unsigned number, with at
// as the high word (see before). That is exact only because at is
// never negative: the clock starts at 0, never moves backwards, and
// AtCall and Reschedule clamp every deadline to now.
//
// Armed timers (see Timer) sit in a second heap of the same shape: a
// 4-ary heap of eventKeys whose slot indexes the timer slot table, plus
// a dense back-index tpos from each timer slot to its key's heap index,
// which Reschedule and Cancel use to find the key. Both heaps share one
// sift implementation (siftUp, siftDown); the engine always runs
// whichever head is earlier in (at, seq). Keeping them apart leaves the
// plain event path free of the position updates an in-place reschedule
// needs.
type Engine struct {
	now    Time
	seq    uint64
	events []eventKey  // 4-ary min-heap, root at index 0
	slots  []payload   // payloads of pending events, indexed by eventKey.slot
	free   []int       // unused slots, reused last-freed first
	timers []eventKey  // 4-ary min-heap of armed timers, root at index 0
	tpos   []int       // heap index in timers of each timer slot's key
	tslots []timerSlot // armed timers, indexed by eventKey.slot in timers
	tfree  []int       // unused timer slots, reused last-freed first
	nRun   uint64

	wd      *watchdogState // nil when no watchdog is armed
	stopErr error          // first abort/cancel reason; sticky
}

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.nRun }

// Pending reports how many events and armed timers are waiting to run.
func (e *Engine) Pending() int { return len(e.events) + len(e.timers) }

// before returns 1 when key a precedes key b in (at, seq) order and 0
// otherwise. It subtracts the keys as 128-bit unsigned numbers, low
// word (seq) first, and returns the final borrow, so the result is a
// value rather than a branch; the caller turns it into an index or a
// mask. Times are never negative (see Engine), so uint64(at) keeps
// their order.
func before(a, b *eventKey) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow
}

// siftUp stores k in heap h, starting at the hole i and moving the hole
// toward the root instead of swapping: each level does one compare and
// one move. When pos is non-nil (the timer heap), it records the heap
// index of every key it moves in pos[key.slot]; the caller records k's
// own index, which siftUp returns.
func siftUp(h []eventKey, pos []int, i int, k eventKey) int {
	for i > 0 {
		p := (i - 1) >> 2
		if before(&k, &h[p]) == 0 {
			break
		}
		h[i] = h[p]
		if pos != nil {
			pos[h[i].slot] = i
		}
		i = p
	}
	h[i] = k
	return i
}

// siftDown stores k in heap h, starting at the hole i and moving the
// hole toward the leaves: one write per level plus the final placement,
// which keeps the common pop-then-push pattern cheap. Where a node has
// all four children, the minimum is picked as a tournament of borrow
// bits with no data-dependent branch: the child order is random, so a
// branch there mispredicts about every other time. pos and the result
// are as in siftUp.
func siftDown(h []eventKey, pos []int, i int, k eventKey) int {
	n := len(h)
	for {
		c := i<<2 + 1
		if c+4 > n {
			// Fewer than four children: the bottom of the path.
			if c < n {
				m := c
				for j := c + 1; j < n; j++ {
					if before(&h[j], &h[m]) != 0 {
						m = j
					}
				}
				if before(&h[m], &k) != 0 {
					h[i] = h[m]
					if pos != nil {
						pos[h[i].slot] = i
					}
					i = m
				}
			}
			break
		}
		// a and b are the winners of children 0-1 and 2-3, m the
		// overall one; indexing the array with &3 needs no bounds check.
		q := (*[4]eventKey)(h[c : c+4])
		a := int(before(&q[1], &q[0]))
		b := 2 + int(before(&q[3], &q[2]))
		m := a ^ ((a ^ b) & -int(before(&q[b&3], &q[a&3])))
		if before(&q[m&3], &k) == 0 {
			break
		}
		h[i] = q[m&3]
		if pos != nil {
			pos[h[i].slot] = i
		}
		i = c + m
	}
	h[i] = k
	return i
}

// fix restores heap order after the key at index i became k and
// returns k's new index; pos is as in siftUp.
func fix(h []eventKey, pos []int, i int, k eventKey) int {
	if i > 0 && before(&k, &h[(i-1)>>2]) != 0 {
		return siftUp(h, pos, i, k)
	}
	return siftDown(h, pos, i, k)
}

// push inserts k into the event heap.
func (e *Engine) push(k eventKey) {
	e.events = append(e.events, eventKey{})
	siftUp(e.events, nil, len(e.events)-1, k)
}

// pop removes and returns the event heap's minimum key; the last key is
// sifted down into the root hole.
func (e *Engine) pop() eventKey {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	e.events = h[:n]
	if n > 0 {
		siftDown(h[:n], nil, 0, last)
	}
	return top
}

// At schedules fn to run at virtual time t. Scheduling in the past runs
// the event at the current time (never before now).
func (e *Engine) At(t Time, fn func()) {
	e.AtCall(t, runThunk, fn)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.AtCall(e.now.Add(d), runThunk, fn)
}

// AtCall schedules call(arg) at virtual time t. Scheduling in the past
// runs the event at the current time (never before now). This is the
// allocation-free scheduling path: call is expected to be a persistent
// function (package-level or built once per component), and arg
// carries the per-event state that a closure would otherwise capture.
func (e *Engine) AtCall(t Time, call Callback, arg any) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var slot int
	if n := len(e.free) - 1; n >= 0 {
		slot = e.free[n]
		e.free = e.free[:n]
	} else {
		slot = len(e.slots)
		e.slots = append(e.slots, payload{})
	}
	e.slots[slot] = payload{call: call, arg: arg}
	e.push(eventKey{at: t, seq: e.seq, slot: slot})
}

// AfterCall schedules call(arg) at d after the current time.
func (e *Engine) AfterCall(d Duration, call Callback, arg any) {
	if d < 0 {
		d = 0
	}
	e.AtCall(e.now.Add(d), call, arg)
}

// next reports the earliest pending entry's time; timer is true when
// that entry is an armed timer rather than a plain event.
func (e *Engine) next() (at Time, timer, ok bool) {
	if len(e.timers) > 0 && (len(e.events) == 0 || before(&e.timers[0], &e.events[0]) != 0) {
		return e.timers[0].at, true, true
	}
	if len(e.events) == 0 {
		return 0, false, false
	}
	return e.events[0].at, false, true
}

// Step runs the single earliest pending event. It reports whether an
// event was run. A stopped engine (see Err) runs nothing.
func (e *Engine) Step() bool {
	if e.stopErr != nil {
		return false
	}
	at, timer, ok := e.next()
	if !ok || (e.wd != nil && !e.admit(at)) {
		return false
	}
	e.now = at
	e.nRun++
	if timer {
		p := e.removeTimer(0)
		p.call(p.arg)
		return true
	}
	slot := e.pop().slot
	p := &e.slots[slot]
	call, arg := p.call, p.arg
	*p = payload{} // release the callback and arg to the GC
	e.free = append(e.free, slot)
	call(arg)
	return true
}

// PeekNext reports the timestamp of the earliest pending event. ok is
// false when no events are pending. Shard coordinators use this on the
// global engine to compute the next conservative window edge.
func (e *Engine) PeekNext() (Time, bool) {
	at, _, ok := e.next()
	return at, ok
}

// RunUntil executes events in timestamp order until the clock reaches t
// or no events remain. The clock is left at t when the horizon is hit
// with events still pending, so follow-up scheduling is relative to the
// horizon.
func (e *Engine) RunUntil(t Time) {
	for e.stopErr == nil {
		if at, _, ok := e.next(); !ok || at > t {
			break
		}
		e.Step()
	}
	if e.stopErr == nil && e.now < t {
		e.now = t
	}
}

// RunBefore executes events strictly earlier than t and leaves the
// clock at t; events at exactly t stay pending. Sharded runs advance
// each shard through the half-open window [now, t) so that barrier
// events scheduled on the global engine at t observe every shard with
// its pre-t work complete but its at-t work unrun — matching the
// unsharded order, where globally scheduled events carry smaller
// sequence numbers than any event scheduled during the run.
func (e *Engine) RunBefore(t Time) {
	for e.stopErr == nil {
		if at, _, ok := e.next(); !ok || at >= t {
			break
		}
		e.Step()
	}
	if e.stopErr == nil && e.now < t {
		e.now = t
	}
}

// Run executes events until none remain. Use with care: workloads that
// resubmit forever never drain; prefer RunUntil.
func (e *Engine) Run() {
	for e.Step() {
	}
}
