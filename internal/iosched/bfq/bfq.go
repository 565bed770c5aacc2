// Package bfq implements the Budget Fair Queueing I/O scheduler at the
// cgroup granularity the paper evaluates: per-group queues with byte
// budgets, weight-proportional virtual-time selection (io.bfq.weight),
// and the slice_idle mechanism that preserves a group's exclusive
// service slice — the source of both BFQ's prioritization ability and
// its unstable, low bandwidth on NVMe (Fig. 2c/d, Fig. 4). Dispatch is
// serialized under a heavyweight per-device lock, capping IOPS far
// below device saturation.
package bfq

import (
	"isolbench/internal/blk"
	"isolbench/internal/device"
	"isolbench/internal/obs"
	"isolbench/internal/obs/attr"
	"isolbench/internal/sim"
)

// Config holds BFQ tunables.
type Config struct {
	SliceIdle  sim.Duration // exclusive-slice idle wait (kernel default 8 ms)
	MaxBudget  int64        // bytes a queue may serve per slice
	LowLatency bool         // weight-boost heuristic (paper disables it)
	BoostDur   sim.Duration // how long a newly started queue is boosted
	BoostMul   float64      // boost multiplier while low_latency is on
}

// DefaultConfig mirrors the paper's setup: slice_idle on (8 ms),
// low_latency explicitly disabled (§III).
func DefaultConfig() Config {
	return Config{
		SliceIdle:  8 * sim.Millisecond,
		MaxBudget:  2 << 20,
		LowLatency: false,
		BoostDur:   100 * sim.Millisecond,
		BoostMul:   3,
	}
}

type queue struct {
	id       int
	weight   float64
	vtime    float64 // virtual service received (bytes/weight)
	served   int64   // bytes served in the current slice
	fifo     []*device.Request
	head     int
	inflight int
	started  sim.Time // first activation (low_latency boost window)
	everRun  bool
}

func (q *queue) pending() int { return len(q.fifo) - q.head }

func (q *queue) push(r *device.Request) { q.fifo = append(q.fifo, r) }

func (q *queue) pop() *device.Request {
	if q.pending() == 0 {
		return nil
	}
	r := q.fifo[q.head]
	q.fifo[q.head] = nil
	q.head++
	if q.head == len(q.fifo) {
		q.fifo = q.fifo[:0]
		q.head = 0
	}
	return r
}

// Scheduler is a BFQ instance for one device.
type Scheduler struct {
	eng *sim.Engine
	cfg Config

	// SliceLog, when set, observes every slice expiry (cgroup id,
	// bytes served, queue vtime after charging). Used by tests and
	// debugging tools.
	SliceLog func(cgroup int, served int64, vtime float64)

	// Obs is the observability sink (nil = disabled): each slice
	// expiry is sampled as "bfq.slice_bytes" / "bfq.vtime" per cgroup,
	// and slice_idle waits as "bfq.idle".
	Obs *obs.Observer

	// Led is the dispatch-stream occupancy ledger shared with the blk
	// layer (nil = attribution off). Slice-idle holds are recorded
	// under the idling queue's cgroup at the sched-idle layer, so other
	// groups' queue residency during the hold blames the idler.
	Led *attr.Ledger

	queues    map[int]*queue
	order     []*queue // stable iteration order
	inService *queue
	budget    int64
	// globalV is the system virtual time (B-WF2Q+): it advances by
	// served bytes over the total active weight. Reactivating queues
	// resume at max(globalV, own vtime), so a high-weight queue that
	// briefly empties (all requests in flight) keeps its weight
	// advantage instead of being reset to the in-service queue's
	// personal clock.
	globalV float64

	idleTimer sim.Timer // slice-idle expiry; pending while the device idles
	idleStart sim.Time  // attribution: when the current idle hold began
	idleQ     int       // attribution: cgroup the device idles for
	kick      func()

	idleCB sim.Callback // persistent slice-idle expiry callback
}

// New returns a BFQ scheduler.
func New(eng *sim.Engine, cfg Config) *Scheduler {
	if cfg.MaxBudget <= 0 {
		cfg.MaxBudget = 2 << 20
	}
	s := &Scheduler{eng: eng, cfg: cfg, queues: make(map[int]*queue)}
	s.idleCB = func(arg any) {
		q := arg.(*queue)
		s.noteIdleEnd()
		if s.inService == q && q.pending() == 0 {
			s.expire(q)
		}
		if s.kick != nil {
			s.kick()
		}
	}
	return s
}

// Name returns "bfq".
func (s *Scheduler) Name() string { return "bfq" }

// Bind stores the pump kick used when idle slices expire.
func (s *Scheduler) Bind(kick func()) { s.kick = kick }

func (s *Scheduler) queueFor(r *device.Request) *queue {
	q, ok := s.queues[r.Cgroup]
	if !ok {
		q = &queue{id: r.Cgroup, weight: 100}
		s.queues[r.Cgroup] = q
		s.order = append(s.order, q)
	}
	if r.Weight > 0 {
		q.weight = float64(r.Weight)
	}
	return q
}

// Insert adds a request to its group's queue, activating the queue at
// the current virtual time if it was idle.
func (s *Scheduler) Insert(r *device.Request) {
	q := s.queueFor(r)
	if q.pending() == 0 && q != s.inService {
		// (Re)activation: never restart behind the global clock.
		if q.vtime < s.globalV {
			q.vtime = s.globalV
		}
		if !q.everRun {
			q.everRun = true
			q.started = s.eng.Now()
		}
	}
	q.push(r)
	if q == s.inService && s.idleTimer.Pending() {
		// The in-service queue got new work before the idle slice
		// expired: resume it.
		s.noteIdleEnd()
		s.eng.Cancel(&s.idleTimer)
		if s.kick != nil {
			s.kick()
		}
	}
}

// noteIdleEnd records the just-finished slice-idle hold in the
// dispatch-stream ledger (no-op when attribution is off).
func (s *Scheduler) noteIdleEnd() {
	s.Led.Record(s.idleStart, s.eng.Now(), s.idleQ, attr.LayerSchedIdle)
}

// effectiveWeight applies the low_latency boost window when enabled.
func (s *Scheduler) effectiveWeight(q *queue) float64 {
	if s.cfg.LowLatency && s.eng.Now().Sub(q.started) < s.cfg.BoostDur {
		return q.weight * s.cfg.BoostMul
	}
	return q.weight
}

// Dispatch serves the in-service queue within its budget; an empty
// in-service queue idles for slice_idle before yielding the device.
func (s *Scheduler) Dispatch() *device.Request {
	if s.idleTimer.Pending() {
		return nil
	}
	if s.inService == nil {
		s.selectQueue()
		if s.inService == nil {
			return nil
		}
	}
	q := s.inService
	if r := q.pop(); r != nil {
		q.served += r.Size
		q.inflight++
		if q.served >= s.budget {
			s.expire(q)
		}
		return r
	}
	// In-service queue is empty. With slice_idle the device is held
	// idle waiting for more work from this queue; otherwise expire.
	if s.cfg.SliceIdle > 0 {
		s.startIdle(q)
		return nil
	}
	s.expire(q)
	return s.Dispatch()
}

func (s *Scheduler) startIdle(q *queue) {
	s.idleStart = s.eng.Now()
	s.idleQ = q.id
	s.Obs.Sample("bfq.idle", q.id, 1)
	s.eng.Reschedule(&s.idleTimer, s.eng.Now().Add(s.cfg.SliceIdle), s.idleCB, q)
}

// expire closes the queue's slice: the queue is charged served/weight
// on its own clock and the system clock advances by served over the
// total weight of queues competing for the device.
func (s *Scheduler) expire(q *queue) {
	if q.served > 0 {
		q.vtime += float64(q.served) / s.effectiveWeight(q)
		if tw := s.activeWeight(q); tw > 0 {
			s.globalV += float64(q.served) / tw
		}
		if s.SliceLog != nil {
			s.SliceLog(q.id, q.served, q.vtime)
		}
		if s.Obs != nil {
			s.Obs.Sample("bfq.slice_bytes", q.id, float64(q.served))
			s.Obs.Sample("bfq.vtime", q.id, q.vtime)
		}
	}
	q.served = 0
	if s.inService == q {
		s.inService = nil
	}
}

// activeWeight sums the effective weights of queues currently
// competing: backlogged, in flight, or the one being expired.
func (s *Scheduler) activeWeight(expiring *queue) float64 {
	var total float64
	for _, q := range s.order {
		if q == expiring || q == s.inService || q.pending() > 0 || q.inflight > 0 {
			total += s.effectiveWeight(q)
		}
	}
	return total
}

// selectQueue picks the backlogged queue with the smallest virtual
// time (weighted fair queueing) and opens its slice.
func (s *Scheduler) selectQueue() {
	var best *queue
	for _, q := range s.order {
		if q.pending() == 0 {
			continue
		}
		if best == nil || q.vtime < best.vtime {
			best = q
		}
	}
	if best == nil {
		return
	}
	s.inService = best
	s.budget = s.cfg.MaxBudget
	best.served = 0
}

// DispatchWindow bounds in-flight requests below the device queue
// depth: BFQ paces dispatch so a backlogged queue cannot burn its
// whole budget in one instant, which is what makes slices meaningful.
func (s *Scheduler) DispatchWindow() int { return 64 }

// DetachGroup drops the cgroup's queue after its traffic has drained
// (blk.GroupDetacher). A queue that still holds pending or in-flight
// requests is left in place. If the queue is in service — possibly
// holding the device idle waiting for more of its work — the idle hold
// is cancelled, the slice expires, and the pump is kicked so another
// group can take over immediately.
func (s *Scheduler) DetachGroup(cg int) {
	q, ok := s.queues[cg]
	if !ok || q.pending() > 0 || q.inflight > 0 {
		return
	}
	if q == s.inService {
		if s.idleTimer.Pending() {
			s.noteIdleEnd()
			s.eng.Cancel(&s.idleTimer)
		}
		s.expire(q)
		if s.kick != nil {
			s.kick()
		}
	}
	delete(s.queues, cg)
	for i, oq := range s.order {
		if oq == q {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Completed tracks per-queue inflight counts.
func (s *Scheduler) Completed(r *device.Request) {
	if q, ok := s.queues[r.Cgroup]; ok && q.inflight > 0 {
		q.inflight--
	}
}

// Overheads returns BFQ's measured cost profile: the heaviest
// submit/completion paths of any knob, a ~5.3 us dispatch lock that
// caps a single device near 0.7 GiB/s of 4 KiB reads (Fig. 4a), 1.05
// context switches and 44.0K cycles per I/O (§V Q1).
func (s *Scheduler) Overheads() blk.Overheads {
	return blk.Overheads{
		SubmitCPU:   4500 * sim.Nanosecond,
		CompleteCPU: 3000 * sim.Nanosecond,
		LockHold:    5300 * sim.Nanosecond,
		CtxPerIO:    1.05,
		CyclesPerIO: 44000,
	}
}
