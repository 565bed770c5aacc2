package sim

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

// event is a scheduled callback. Events at the same instant fire in
// scheduling order (seq breaks ties) so runs are deterministic.
type event struct {
	at   Time
	seq  uint64
	call Callback
	arg  any
}

// Engine is a deterministic discrete-event simulator. The zero value is
// ready to use; time starts at 0.
//
// The pending-event queue is an inlined 4-ary min-heap specialized to
// event, ordered by (at, seq). Compared to container/heap it avoids
// the interface boxing that allocated one event copy per Push, and the
// wider fan-out halves the sift-down depth — the hot operation, since
// the engine's steady state is pop-one, push-a-few. Because (at, seq)
// is a total order (seq is unique), any heap shape pops events in
// exactly the same sequence, so this rewrite is observably identical
// to the old binary heap.
//
// Timers (see Timer) sit in a second, indexed binary heap beside the
// event heap; the engine always runs whichever head is earlier in
// (at, seq). Keeping them apart leaves the plain event path free of
// the back-pointer an in-place reschedule needs.
type Engine struct {
	now    Time
	seq    uint64
	events []event  // 4-ary min-heap, root at index 0
	timers []*Timer // binary min-heap of armed timers, root at index 0
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

// eventLess orders events by (at, seq).
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev, sifting the hole up instead of swapping: each level
// does one compare and one move.
func (e *Engine) push(ev event) {
	h := append(e.events, event{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the minimum event. The last element is
// sifted down into the root hole; moving it (rather than swapping at
// each level) keeps the common pop-then-push pattern at one write per
// level plus the final placement.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the callback and arg pointers to the GC
	h = h[:n]
	e.events = h
	if n > 0 {
		// Sift last down from the root.
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if eventLess(h[j], h[m]) {
					m = j
				}
			}
			if !eventLess(h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
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
	e.push(event{at: t, seq: e.seq, call: call, arg: arg})
}

// AfterCall schedules call(arg) at d after the current time.
func (e *Engine) AfterCall(d Duration, call Callback, arg any) {
	if d < 0 {
		d = 0
	}
	e.AtCall(e.now.Add(d), call, arg)
}

// next reports the earliest pending entry's time; tm is non-nil when
// that entry is an armed timer rather than a plain event.
func (e *Engine) next() (at Time, tm *Timer, ok bool) {
	if len(e.timers) > 0 && (len(e.events) == 0 || e.timerFirst()) {
		tm = e.timers[0]
		return tm.at, tm, true
	}
	if len(e.events) == 0 {
		return 0, nil, false
	}
	return e.events[0].at, nil, true
}

// Step runs the single earliest pending event. It reports whether an
// event was run. A stopped engine (see Err) runs nothing.
func (e *Engine) Step() bool {
	if e.stopErr != nil {
		return false
	}
	at, tm, ok := e.next()
	if !ok || (e.wd != nil && !e.admit(at)) {
		return false
	}
	e.now = at
	e.nRun++
	if tm != nil {
		e.removeTimer(0)
		tm.call(tm.arg)
		return true
	}
	ev := e.pop()
	ev.call(ev.arg)
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
