// Package blk is the simulated block layer: it connects applications
// to a device through an optional cgroup I/O controller (io.max,
// io.latency, io.cost) and an I/O scheduler (none, mq-deadline, bfq),
// mirroring the request path the paper evaluates. One Queue exists per
// device, like a blk-mq request queue.
package blk

import (
	"fmt"

	"isolbench/internal/device"
	"isolbench/internal/host"
	"isolbench/internal/obs"
	"isolbench/internal/obs/attr"
	"isolbench/internal/sim"
)

// Overheads describes the CPU cost a path component (scheduler or
// controller) adds to each I/O, plus bookkeeping the paper reports.
type Overheads struct {
	SubmitCPU   sim.Duration // added to the submit path on the app's core
	CompleteCPU sim.Duration // added to the completion path
	LockHold    sim.Duration // per-device serialized section (dispatch lock)

	// ContentionFactor/Free/Cap model hot-path lock spinning that only
	// bites when the core is backlogged (io.cost's behaviour past CPU
	// saturation): extra CPU = min(factor * (backlog - free), cap)
	// when backlog exceeds the free allowance.
	ContentionFactor float64
	ContentionFree   sim.Duration
	ContentionCap    sim.Duration

	CtxPerIO    float64 // context switches per I/O (reported by sar/fio)
	CyclesPerIO float64 // cycles per I/O (reported by perf)
}

// Add combines two overhead sets.
func (o Overheads) Add(p Overheads) Overheads {
	return Overheads{
		SubmitCPU:        o.SubmitCPU + p.SubmitCPU,
		CompleteCPU:      o.CompleteCPU + p.CompleteCPU,
		LockHold:         o.LockHold + p.LockHold,
		ContentionFactor: o.ContentionFactor + p.ContentionFactor,
		ContentionFree:   maxDur(o.ContentionFree, p.ContentionFree),
		ContentionCap:    maxDur(o.ContentionCap, p.ContentionCap),
		CtxPerIO:         o.CtxPerIO + p.CtxPerIO,
		CyclesPerIO:      o.CyclesPerIO + p.CyclesPerIO,
	}
}

func maxDur(a, b sim.Duration) sim.Duration {
	if a > b {
		return a
	}
	return b
}

// RetryPolicy is the blk-layer recovery configuration: a per-attempt
// timeout watchdog plus bounded retries with exponential backoff, the
// scaled-down analogue of the kernel's nvme timeout/requeue path.
// The zero value disables recovery entirely (no watchdog events are
// scheduled, keeping fault-free runs byte-identical).
type RetryPolicy struct {
	// MaxRetries bounds resubmissions per request; past it the request
	// is failed up to the application.
	MaxRetries int
	// Backoff is the delay before the first retry; it doubles per
	// attempt up to BackoffMax.
	Backoff    sim.Duration
	BackoffMax sim.Duration
	// Timeout arms a watchdog per dispatch; an attempt exceeding it is
	// aborted (lost commands free their queue slot) and retried. 0
	// disables the watchdog.
	Timeout sim.Duration
}

// DefaultRetryPolicy mirrors the kernel's shape (nvme io_timeout +
// requeue with backoff) scaled to the simulated device's microsecond
// service times: the kernel's 30 s timeout guards ~100 us I/Os, ours
// guards the same ratio.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxRetries: 5,
		Backoff:    500 * sim.Microsecond,
		BackoffMax: 16 * sim.Millisecond,
		Timeout:    100 * sim.Millisecond,
	}
}

// Scheduler is an I/O scheduler attached to one device queue. Insert
// hands it a request; Dispatch returns the next request to send to the
// device (nil if nothing may be dispatched right now — e.g. BFQ is
// idling). Schedulers get a Kick callback at bind time to restart the
// dispatch pump from their own timers.
type Scheduler interface {
	Name() string
	Bind(kick func())
	Insert(r *device.Request)
	Dispatch() *device.Request
	Completed(r *device.Request)
	// Overheads is the scheduler's fixed per-I/O cost. NewQueue reads
	// it once and caches it, so it must not change afterwards.
	Overheads() Overheads
	// DispatchWindow bounds how many requests the scheduler keeps in
	// flight at the device (0 = device limit). Real schedulers pace
	// dispatch well below the NVMe queue depth; without this bound a
	// backlogged queue would burn through its service budget in an
	// instant and scheduling policy would never bite. NewQueue reads
	// it once and caches it, so it must not change afterwards.
	DispatchWindow() int
}

// Controller is a cgroup I/O controller stage ahead of the scheduler.
// Submit either forwards the request immediately or holds it
// (throttling) and forwards later via the bound next function.
type Controller interface {
	Name() string
	Bind(next func(*device.Request))
	Submit(r *device.Request)
	Completed(r *device.Request)
	// Overheads is the controller's fixed per-I/O cost. NewQueue reads
	// it once and caches it, so it must not change afterwards.
	Overheads() Overheads
}

// GroupDetacher is implemented by schedulers and controllers that keep
// per-cgroup state (BFQ queues, io.cost vtime clocks, io.max buckets,
// io.latency depth limits) and can drop it when a cgroup is removed
// mid-run. Implementations must treat a detach for a cgroup that still
// has queued or in-flight requests as a no-op — the caller drains the
// cgroup's traffic first, so a refused detach indicates a teardown
// ordering bug rather than a condition to handle.
type GroupDetacher interface {
	DetachGroup(cg int)
}

// Queue is the per-device request path: controller -> scheduler ->
// dispatch lock -> device.
type Queue struct {
	eng   *sim.Engine
	dev   *device.Device
	sched Scheduler
	ctl   Controller
	lock  *host.Server

	// Path constants, computed once by NewQueue: the combined
	// scheduler+controller overheads and the in-flight dispatch limit,
	// min(device MaxQD, scheduler DispatchWindow).
	over  Overheads
	limit int

	reserved int // dispatch decisions in flight toward the device
	pumping  bool

	// lockQ holds requests waiting for their serialized dispatch-lock
	// section; lockFn is the single reusable closure handed to the lock
	// server. host.Server executes work FIFO, so lockRelease always pops
	// the request whose Exec enqueued it.
	lockQ    []*device.Request
	lockHead int
	lockFn   func()

	submitted uint64
	completed uint64

	// Recovery path. Each in-device request carries its own watchdog
	// timer (device.Request.Watchdog); a completion cancels it in
	// place. armed counts the pending watchdogs.
	retry    RetryPolicy
	armed    int
	wdCB     sim.Callback // persistent watchdog callback (arg=request)
	retries  uint64
	timeouts uint64
	failures uint64

	// obs is the observability sink (nil = disabled fast path); devName
	// labels this queue's device in io.stat and exports.
	obs     *obs.Observer
	devName string

	// attr is the wait-for-whom tracker (nil = disabled fast path);
	// schedLed is the scheduler dispatch-stream ledger shared with the
	// scheduler for its own holds (BFQ idling, MQ-DL class blocking).
	attr     *attr.Tracker
	schedLed *attr.Ledger
}

// NewQueue wires a queue. ctl may be nil (no cgroup I/O controller).
// The scheduler must not be nil; use the noop scheduler for "none".
func NewQueue(eng *sim.Engine, dev *device.Device, sched Scheduler, ctl Controller) *Queue {
	q := &Queue{eng: eng, dev: dev, sched: sched, ctl: ctl}
	q.over = sched.Overheads()
	if ctl != nil {
		q.over = q.over.Add(ctl.Overheads())
	}
	q.limit = dev.Profile().MaxQD
	if w := sched.DispatchWindow(); w > 0 && w < q.limit {
		q.limit = w
	}
	q.lock = host.NewServer(eng, "dispatch-lock:"+sched.Name())
	q.lockFn = q.lockRelease
	q.wdCB = func(arg any) { q.onTimeout(arg.(*device.Request)) }
	sched.Bind(q.Pump)
	if ctl != nil {
		ctl.Bind(q.toScheduler)
	}
	dev.OnDone = q.onDeviceDone
	return q
}

// SetObserver attaches the observability layer. devName is the
// "major:minor" label this queue's device carries in io.stat lines and
// trace exports. Passing nil detaches (the disabled fast path).
func (q *Queue) SetObserver(o *obs.Observer, devName string) {
	q.obs = o
	q.devName = devName
}

// Observer returns the attached observability sink (nil when
// disabled).
func (q *Queue) Observer() *obs.Observer { return q.obs }

// SetAttribution attaches the wait-for-whom tracker: scheduler-queue
// residency is charged against the dispatch stream, dispatch-lock
// waits against the lock's occupancy ledger, device waits inside the
// device, and retry backoff to the request's own cgroup. Passing nil
// detaches everything (the disabled fast path).
func (q *Queue) SetAttribution(t *attr.Tracker) {
	q.attr = t
	if t == nil {
		q.schedLed = nil
		q.lock.SetLedger(nil)
		q.dev.SetAttribution(nil)
		return
	}
	q.schedLed = t.NewLedger(attr.LayerSched)
	q.lock.SetLedger(t.NewLedger(attr.LayerDispatch))
	q.dev.SetAttribution(t)
}

// SchedLedger returns the scheduler dispatch-stream ledger so the
// bound scheduler can record its own holds (nil when attribution is
// off).
func (q *Queue) SchedLedger() *attr.Ledger { return q.schedLed }

// DevName returns the observability device label.
func (q *Queue) DevName() string { return q.devName }

// Device returns the backing device.
func (q *Queue) Device() *device.Device { return q.dev }

// Scheduler returns the attached scheduler.
func (q *Queue) Scheduler() Scheduler { return q.sched }

// Controller returns the attached controller (nil when none).
func (q *Queue) Controller() Controller { return q.ctl }

// DetachGroup drops the scheduler's and controller's per-cgroup state
// for a removed cgroup. Call only after the cgroup's traffic has fully
// drained; components that still hold requests for the cgroup keep
// their state (see GroupDetacher). Stages without per-cgroup state
// (noop, mq-deadline) are skipped.
func (q *Queue) DetachGroup(cg int) {
	if d, ok := q.sched.(GroupDetacher); ok {
		d.DetachGroup(cg)
	}
	if q.ctl != nil {
		if d, ok := q.ctl.(GroupDetacher); ok {
			d.DetachGroup(cg)
		}
	}
}

// PathOverheads returns the combined controller+scheduler overheads,
// which the workload layer charges to the issuing core.
func (q *Queue) PathOverheads() Overheads { return q.over }

// SetRetryPolicy installs the recovery configuration. Call before the
// run starts; the zero policy disables recovery.
func (q *Queue) SetRetryPolicy(p RetryPolicy) {
	q.retry = p
}

// RetryPolicy returns the active recovery configuration.
func (q *Queue) RetryPolicy() RetryPolicy { return q.retry }

// Submitted and Completed report queue-level counters.
func (q *Queue) Submitted() uint64 { return q.submitted }

// Completed reports how many requests finished successfully on this
// queue (permanent failures are counted by Failures instead).
func (q *Queue) Completed() uint64 { return q.completed }

// Retries reports how many attempts were resubmitted after a transient
// error or timeout.
func (q *Queue) Retries() uint64 { return q.retries }

// Timeouts reports how many attempts the watchdog gave up on.
func (q *Queue) Timeouts() uint64 { return q.timeouts }

// ArmedWatchdogs reports how many in-device attempts have a pending
// timeout watchdog right now.
func (q *Queue) ArmedWatchdogs() int { return q.armed }

// Failures reports how many requests exhausted their retry budget and
// were failed up to the application.
func (q *Queue) Failures() uint64 { return q.failures }

// CheckConservation asserts the queue's request-accounting identities:
// every submitted request is either terminally completed (success or
// permanent failure) or still somewhere in the path (controller,
// scheduler, dispatch lock, backoff wait, or device), and the armed
// watchdog timers never outnumber the device's in-flight slots.
// maxOutstanding bounds the in-path population (the sum of the queue
// depths of the apps feeding this queue); pass a negative value to
// skip that bound when the feeding population is unknown (e.g. replay
// traffic).
func (q *Queue) CheckConservation(maxOutstanding int) []string {
	var v []string
	name := q.devName
	if name == "" {
		name = q.sched.Name()
	}
	if q.completed > q.submitted {
		v = append(v, fmt.Sprintf("queue %s: completed %d > submitted %d",
			name, q.completed, q.submitted))
	}
	inPath := q.submitted - q.completed
	if maxOutstanding >= 0 && inPath > uint64(maxOutstanding) {
		v = append(v, fmt.Sprintf(
			"queue %s: %d requests in path exceed the feeding apps' total QD %d",
			name, inPath, maxOutstanding))
	}
	if q.failures > q.completed {
		v = append(v, fmt.Sprintf("queue %s: failures %d > completed %d",
			name, q.failures, q.completed))
	}
	if n := q.armed; n > q.dev.Inflight() {
		v = append(v, fmt.Sprintf(
			"queue %s: %d armed timeout watchdogs > %d requests in device",
			name, n, q.dev.Inflight()))
	}
	if q.reserved < 0 {
		v = append(v, fmt.Sprintf("queue %s: negative dispatch reservation %d",
			name, q.reserved))
	}
	return v
}

// Submit enters a request into the path. CPU costs must already have
// been paid by the caller (the workload layer models the submitting
// core explicitly).
func (q *Queue) Submit(r *device.Request) {
	q.submitted++
	if q.attr != nil && r.Blame == nil {
		// Paths that don't pre-attach a blame record (replayed traces)
		// still get per-request attribution from here down.
		r.Blame = q.attr.NewReq()
	}
	if q.ctl != nil {
		q.ctl.Submit(r)
		return
	}
	q.toScheduler(r)
}

func (q *Queue) toScheduler(r *device.Request) {
	r.Queued = q.eng.Now()
	q.obs.RunBegin(r.Cgroup)
	q.sched.Insert(r)
	q.Pump()
}

// Pump moves dispatchable requests to the device while it has room.
// The pumping flag keeps re-entrant calls (scheduler kicks from inside
// dispatch) from nesting. The lock hold and dispatch limit are the
// path constants NewQueue cached at wiring time.
func (q *Queue) Pump() {
	if q.pumping {
		return
	}
	q.pumping = true
	defer func() { q.pumping = false }()

	hold := q.over.LockHold
	for q.dev.Inflight()+q.reserved < q.limit {
		r := q.sched.Dispatch()
		if r == nil {
			return
		}
		r.SchedOut = q.eng.Now()
		if q.attr != nil {
			// Close the dispatch-stream interval since the previous grant
			// under this request's cgroup, then charge the request's queue
			// residency [Queued, SchedOut) against the stream: time behind
			// other cgroups' grants (or a scheduler hold recorded by the
			// scheduler itself) blames them; the rest falls back to self.
			q.schedLed.Extend(r.SchedOut, r.Cgroup)
			q.schedLed.ChargeSpan(r.Blame, r.Queued, r.SchedOut, r.Cgroup)
		}
		q.reserved++
		if hold <= 0 {
			q.reserved--
			q.toDevice(r)
			continue
		}
		q.lockQ = append(q.lockQ, r)
		delay := q.lock.ExecOwned(hold, r.Cgroup, q.lockFn)
		if q.attr != nil && r.Blame != nil && delay > 0 {
			// The lock runs FIFO and records every holder's busy interval
			// at Exec time, so the wait window is already fully covered.
			now := q.eng.Now()
			q.lock.Ledger().ChargeSpan(r.Blame, now, now.Add(delay), r.Cgroup)
		}
	}
}

// lockRelease finishes one serialized dispatch-lock section: it pops
// the oldest queued request and hands it to the device.
func (q *Queue) lockRelease() {
	r := q.lockQ[q.lockHead]
	q.lockQ[q.lockHead] = nil
	q.lockHead++
	if q.lockHead == len(q.lockQ) {
		q.lockQ = q.lockQ[:0]
		q.lockHead = 0
	}
	q.reserved--
	q.toDevice(r)
}

// toDevice hands one dispatch decision to the device, arming the
// timeout watchdog when recovery is configured. With the zero policy
// this is exactly the old direct submit — no extra events.
func (q *Queue) toDevice(r *device.Request) {
	if q.retry.Timeout > 0 {
		q.armed++
		q.eng.Reschedule(&r.Watchdog, q.eng.Now().Add(q.retry.Timeout), q.wdCB, r)
	}
	q.dev.Submit(r)
}

func (q *Queue) onDeviceDone(r *device.Request) {
	if r.Watchdog.Pending() {
		q.armed--
		q.eng.Cancel(&r.Watchdog)
	}
	if r.Failed || r.TimedOut {
		// A failed attempt still releases scheduler/controller state
		// (the kernel completes the request into the error path), then
		// recovery decides: resubmit or fail upward.
		q.sched.Completed(r)
		if q.ctl != nil {
			q.ctl.Completed(r)
		}
		q.recover(r, false)
		q.Pump()
		return
	}
	q.completed++
	q.obs.Completed(q.devName, r)
	q.finishBlame(r)
	q.sched.Completed(r)
	if q.ctl != nil {
		q.ctl.Completed(r)
	}
	q.Pump()
}

// finishBlame folds a terminally completed request's blame record into
// the run's matrix. The observer must have consumed the span first.
func (q *Queue) finishBlame(r *device.Request) {
	if q.attr == nil || r.Blame == nil {
		return
	}
	q.attr.Finish(r.Cgroup, r.Blame)
	r.Blame = nil
}

// onTimeout is the watchdog for one dispatch attempt; a completion
// cancels it, so it only ever fires for an attempt still in the device.
func (q *Queue) onTimeout(r *device.Request) {
	q.armed--
	q.timeouts++
	q.obs.Timeout(q.devName, r.Cgroup)
	r.TimedOut = true
	if !q.dev.Abort(r) {
		// Still in service: the slot cannot be reclaimed. The eventual
		// completion routes through recover via the TimedOut mark
		// (abort-and-disregard, as the kernel does after nvme_abort).
		return
	}
	// Lost command: the device freed the slot and will never complete
	// it, so the block layer completes the attempt itself.
	r.Complete = q.eng.Now()
	q.sched.Completed(r)
	if q.ctl != nil {
		q.ctl.Completed(r)
	}
	q.recover(r, true)
	q.Pump()
}

// recover routes a failed attempt: bounded retry with exponential
// backoff, or permanent failure up to the application. The caller has
// already released scheduler/controller state for the attempt. deliver
// is true on the watchdog/abort path, where the device never re-enters
// finish and the block layer must fire the terminal callback itself.
func (q *Queue) recover(r *device.Request, deliver bool) {
	if r.Attempts < q.retry.MaxRetries {
		q.scheduleRetry(r)
		return
	}
	q.failures++
	q.completed++
	q.obs.Completed(q.devName, r)
	q.finishBlame(r)
	if deliver && r.OnComplete != nil {
		r.OnComplete(r)
	}
}

// scheduleRetry resubmits a failed attempt after backoff. The terminal
// callback is detached for the in-between window so neither the device
// (for completed-with-error attempts) nor anything else notifies the
// application mid-recovery.
func (q *Queue) scheduleRetry(r *device.Request) {
	q.retries++
	q.obs.Retry(q.devName, r.Cgroup)
	q.obs.RunEnd(r.Cgroup)
	r.Attempts++
	r.Failed, r.TimedOut = false, false
	done := r.OnComplete
	r.OnComplete = nil
	backoff := q.backoffFor(r.Attempts)
	if q.attr != nil {
		// Backoff is the request's own recovery pause, not contention:
		// it charges to self at the retry layer.
		q.attr.ChargeInterval(r.Blame, attr.LayerRetry, r.Cgroup, backoff)
	}
	q.eng.After(backoff, func() {
		r.OnComplete = done
		q.toScheduler(r)
	})
}

// backoffFor returns the delay before retry attempt n (1-based):
// Backoff doubled per prior attempt, capped at BackoffMax.
func (q *Queue) backoffFor(n int) sim.Duration {
	d := q.retry.Backoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= q.retry.BackoffMax {
			return q.retry.BackoffMax
		}
	}
	if q.retry.BackoffMax > 0 && d > q.retry.BackoffMax {
		d = q.retry.BackoffMax
	}
	return d
}
