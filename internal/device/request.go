package device

import (
	"isolbench/internal/obs/attr"
	"isolbench/internal/sim"
)

// PrioClass mirrors the Linux I/O priority classes that io.prio.class
// assigns to a cgroup's requests. Schedulers that honor priorities
// (MQ-Deadline) dispatch RT before BE before Idle.
type PrioClass uint8

// Priority classes, ordered from most to least urgent.
const (
	ClassNone PrioClass = iota
	ClassRT
	ClassBE
	ClassIdle
)

func (c PrioClass) String() string {
	switch c {
	case ClassRT:
		return "rt"
	case ClassBE:
		return "be"
	case ClassIdle:
		return "idle"
	default:
		return "none"
	}
}

// Rank orders classes for dispatching: lower rank dispatches first.
// ClassNone ranks with best-effort, as in the kernel.
func (c PrioClass) Rank() int {
	switch c {
	case ClassRT:
		return 0
	case ClassIdle:
		return 2
	default:
		return 1
	}
}

// Request is one block I/O request flowing app -> cgroup controller ->
// scheduler -> device. Requests are pooled and reused by their issuing
// app; all fields are reset on reuse.
type Request struct {
	ID     uint64
	Op     Op
	Size   int64
	Offset int64
	Seq    bool

	// Ownership and policy context.
	AppID  int
	Cgroup int       // cgroup id for controller/scheduler accounting
	Class  PrioClass // from io.prio.class
	Weight int       // resolved cgroup weight (BFQ/io.cost input)

	// Lifecycle timestamps (virtual time). Each boundary closes one
	// stage of the path; internal/obs decomposes a completed request's
	// latency from these (see obs.SpanOf).
	Submit   sim.Time // app issued the request (latency epoch)
	Queued   sim.Time // arrived at the scheduler (past controllers)
	SchedOut sim.Time // scheduler released it toward dispatch
	Dispatch sim.Time // sent to the device (past the dispatch lock)
	Service  sim.Time // flash channel service began
	Complete sim.Time

	// OnComplete is invoked exactly once when the request finishes.
	OnComplete func(*Request)

	// Blame is the request's wait-for-whom decomposition, allocated by
	// the blk layer when attribution is on (nil otherwise). The record
	// accumulates across retries and is folded into the run's blame
	// matrix at terminal completion.
	Blame *attr.ReqBlame

	// Fault/recovery state. Failed marks a completion that carried a
	// transient device error; TimedOut marks an attempt the blk watchdog
	// gave up on. Attempts counts resubmissions beyond the first (so 0
	// for the common fault-free path).
	Failed   bool
	TimedOut bool
	Attempts int

	// Watchdog is the blk layer's timeout for the attempt in the
	// device. It is pending from dispatch until completion or expiry,
	// and must not be pending when the request is pooled or reset.
	Watchdog sim.Timer

	// pipe bookkeeping (device-internal).
	finishS  float64
	heapIdx  int
	extraLat sim.Duration // die-collision delay applied at completion
}

// Reset clears a pooled request for reuse, preserving nothing.
func (r *Request) Reset() {
	*r = Request{heapIdx: -1}
}

// Latency returns the end-to-end latency, valid after completion.
func (r *Request) Latency() sim.Duration { return r.Complete.Sub(r.Submit) }

// DeviceLatency returns time spent inside the device.
func (r *Request) DeviceLatency() sim.Duration { return r.Complete.Sub(r.Dispatch) }

// WaitLatency returns time spent above the device (CPU queueing,
// throttling, scheduler queues).
func (r *Request) WaitLatency() sim.Duration { return r.Dispatch.Sub(r.Submit) }

// SchedLatency returns time spent inside the scheduler's queues.
func (r *Request) SchedLatency() sim.Duration { return r.SchedOut.Sub(r.Queued) }

// ChannelWait returns time spent inside the device waiting for a free
// flash channel (valid after service starts).
func (r *Request) ChannelWait() sim.Duration { return r.Service.Sub(r.Dispatch) }
