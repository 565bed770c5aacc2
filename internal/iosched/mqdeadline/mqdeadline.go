// Package mqdeadline implements the MQ-Deadline I/O scheduler with
// io.prio.class support, as evaluated by the paper: three priority
// levels (RT > BE > Idle) with strict ordering, per-direction FIFOs
// with read/write deadlines, batched dispatching, write-starvation
// protection, and priority aging so lower classes are not starved
// forever (prio_aging_expire). Dispatch is serialized by a per-device
// lock whose hold time caps single-device IOPS well below the SSD's
// saturation point — the bandwidth plateau of Fig. 4.
package mqdeadline

import (
	"isolbench/internal/blk"
	"isolbench/internal/device"
	"isolbench/internal/obs"
	"isolbench/internal/obs/attr"
	"isolbench/internal/sim"
)

// Config are the tunables mq-deadline exposes in sysfs (defaults match
// the kernel).
type Config struct {
	ReadExpire      sim.Duration // deadline for reads
	WriteExpire     sim.Duration // deadline for writes
	FifoBatch       int          // requests dispatched per batch
	WritesStarved   int          // read batches allowed before writes must run
	PrioAgingExpire sim.Duration // starvation bound for lower classes

	// ActiveWindow is how long after a higher class's last insertion
	// lower classes stay blocked. It abstracts the strict-priority
	// dispatch plus per-class tag-depth limiting that lets MQ-DL
	// starve lower classes to "tens of KiB/s" while a higher class is
	// running (Fig. 2b) — lower classes then only progress through
	// priority aging.
	ActiveWindow sim.Duration
}

// DefaultConfig mirrors kernel defaults.
func DefaultConfig() Config {
	return Config{
		ReadExpire:      500 * sim.Millisecond,
		WriteExpire:     5 * sim.Second,
		FifoBatch:       16,
		WritesStarved:   2,
		PrioAgingExpire: 10 * sim.Second,
		ActiveWindow:    10 * sim.Millisecond,
	}
}

// Scheduler is an MQ-Deadline instance for one device.
type Scheduler struct {
	eng *sim.Engine
	cfg Config

	// Obs is the observability sink (nil = disabled): priority-aged
	// dispatches are sampled as "mqdl.aged" per class rank, and batch
	// starts as "mqdl.batch" (rank*2+dir).
	Obs *obs.Observer

	// Led is the dispatch-stream occupancy ledger shared with the blk
	// layer (nil = attribution off). Strict-priority blocks caused only
	// by a higher class's recent activity — its FIFOs are empty, so no
	// dispatch would otherwise own the interval — are recorded under
	// that class's last inserter.
	Led *attr.Ledger

	// fifo[classRank][dir]: deadline-ordered (== insertion-ordered)
	// request lists.
	fifo [3][2]fifoList

	batchLeft    int // remaining requests in the current batch
	batchRank    int
	batchDir     int
	starvedWr    int
	kick         func()
	timerArmed   bool
	lastInsert   [3]sim.Time
	lastInsertCg [3]int
	everSeen     [3]bool
	windowKickAt sim.Time

	// Persistent timer callbacks. Every window kick pumps, including
	// one superseded by an earlier kick, so they stay plain events; a
	// kick firing at windowKickAt is the one that set it.
	windowKickCB sim.Callback
	agingCB      sim.Callback
}

type fifoList struct {
	reqs []*device.Request
	head int
}

func (f *fifoList) push(r *device.Request) { f.reqs = append(f.reqs, r) }

func (f *fifoList) peek() *device.Request {
	if f.head >= len(f.reqs) {
		return nil
	}
	return f.reqs[f.head]
}

func (f *fifoList) pop() *device.Request {
	r := f.peek()
	if r == nil {
		return nil
	}
	f.reqs[f.head] = nil
	f.head++
	if f.head == len(f.reqs) {
		f.reqs = f.reqs[:0]
		f.head = 0
	}
	return r
}

func (f *fifoList) len() int { return len(f.reqs) - f.head }

// New returns an MQ-Deadline scheduler.
func New(eng *sim.Engine, cfg Config) *Scheduler {
	if cfg.FifoBatch <= 0 {
		cfg.FifoBatch = 16
	}
	if cfg.WritesStarved <= 0 {
		cfg.WritesStarved = 2
	}
	s := &Scheduler{eng: eng, cfg: cfg}
	s.windowKickCB = func(any) {
		if s.windowKickAt == s.eng.Now() {
			s.windowKickAt = 0
		}
		if s.kick != nil {
			s.kick()
		}
	}
	s.agingCB = func(any) {
		s.timerArmed = false
		if s.kick != nil {
			s.kick()
		}
		if s.pending() > 0 {
			s.armAgingTimer()
		}
	}
	return s
}

// Name returns "mq-deadline".
func (s *Scheduler) Name() string { return "mq-deadline" }

// Bind stores the pump kick for aging timers.
func (s *Scheduler) Bind(kick func()) { s.kick = kick }

func dirOf(r *device.Request) int {
	if r.Op == device.Write {
		return 1
	}
	return 0
}

// Insert queues r in its class/direction FIFO.
func (s *Scheduler) Insert(r *device.Request) {
	rank := r.Class.Rank()
	s.fifo[rank][dirOf(r)].push(r)
	s.lastInsert[rank] = s.eng.Now()
	s.lastInsertCg[rank] = r.Cgroup
	s.everSeen[rank] = true
	s.armAgingTimer()
}

// higherClassActive reports whether any class above rank has pending
// requests or inserted within the activity window — while it does,
// rank is blocked except through aging. When the block is only due to
// recency, a kick is armed for the window's expiry so blocked classes
// resume as soon as the higher class goes quiet.
func (s *Scheduler) higherClassActive(rank int) bool {
	now := s.eng.Now()
	for q := 0; q < rank; q++ {
		if s.fifo[q][0].len() > 0 || s.fifo[q][1].len() > 0 {
			return true
		}
		if s.everSeen[q] && now.Sub(s.lastInsert[q]) < s.cfg.ActiveWindow {
			// Attribution: nothing of class q will dispatch (its FIFOs
			// are empty), so own the blocked interval explicitly.
			s.Led.Extend(now, s.lastInsertCg[q])
			s.armWindowKick(s.lastInsert[q].Add(s.cfg.ActiveWindow))
			return true
		}
	}
	return false
}

func (s *Scheduler) armWindowKick(at sim.Time) {
	if s.windowKickAt != 0 && s.windowKickAt <= at && s.windowKickAt > s.eng.Now() {
		return // an earlier-or-equal kick is already armed
	}
	s.windowKickAt = at
	s.eng.AtCall(at, s.windowKickCB, nil)
}

// armAgingTimer ensures a future kick so aged lower-class requests get
// dispatched even when no completions arrive.
func (s *Scheduler) armAgingTimer() {
	if s.timerArmed || s.cfg.PrioAgingExpire <= 0 {
		return
	}
	s.timerArmed = true
	s.eng.AfterCall(s.cfg.PrioAgingExpire, s.agingCB, nil)
}

func (s *Scheduler) pending() int {
	n := 0
	for rank := 0; rank < 3; rank++ {
		n += s.fifo[rank][0].len() + s.fifo[rank][1].len()
	}
	return n
}

// Dispatch returns the next request: an aged lower-class request if one
// expired, otherwise the highest non-empty class, preferring reads
// until writes starve, batching within one (class, dir) stream.
func (s *Scheduler) Dispatch() *device.Request {
	// Continue the current batch while it has matching work.
	if s.batchLeft > 0 {
		if r := s.fifo[s.batchRank][s.batchDir].pop(); r != nil {
			s.batchLeft--
			return r
		}
		s.batchLeft = 0
	}

	// Priority aging: a lower-class request older than the aging
	// expiry is dispatched ahead of higher classes.
	if s.cfg.PrioAgingExpire > 0 {
		now := s.eng.Now()
		for rank := 1; rank < 3; rank++ {
			for dir := 0; dir < 2; dir++ {
				if head := s.fifo[rank][dir].peek(); head != nil &&
					now.Sub(head.Queued) >= s.cfg.PrioAgingExpire {
					s.Obs.Sample("mqdl.aged", rank, 1)
					s.startBatch(rank, dir)
					return s.Dispatch()
				}
			}
		}
	}

	for rank := 0; rank < 3; rank++ {
		nR, nW := s.fifo[rank][0].len(), s.fifo[rank][1].len()
		if nR == 0 && nW == 0 {
			continue
		}
		if rank > 0 && s.higherClassActive(rank) {
			// Strict priority: a recently active higher class blocks
			// this one (aging above is the only escape hatch).
			break
		}
		dir := 0
		switch {
		case nR == 0:
			dir = 1
		case nW > 0 && s.starvedWr >= s.cfg.WritesStarved:
			dir = 1
		case nW > 0 && s.writeExpired(rank):
			dir = 1
		}
		if dir == 0 && nW > 0 {
			s.starvedWr++
		}
		if dir == 1 {
			s.starvedWr = 0
		}
		s.startBatch(rank, dir)
		return s.Dispatch()
	}
	return nil
}

func (s *Scheduler) writeExpired(rank int) bool {
	head := s.fifo[rank][1].peek()
	return head != nil && s.eng.Now().Sub(head.Queued) >= s.cfg.WriteExpire
}

func (s *Scheduler) startBatch(rank, dir int) {
	s.batchRank, s.batchDir = rank, dir
	s.batchLeft = s.cfg.FifoBatch
	s.Obs.Sample("mqdl.batch", -1, float64(rank*2+dir))
}

// Completed is a no-op for mq-deadline.
func (s *Scheduler) Completed(*device.Request) {}

// DispatchWindow bounds in-flight requests below the device queue
// depth (schedulers keep the device queue shallow so their policy
// decisions matter).
func (s *Scheduler) DispatchWindow() int { return 64 }

// Overheads returns MQ-Deadline's measured cost profile: extra
// submit/completion CPU plus a ~2.1 us dispatch lock that caps a
// single device near 1.8 GiB/s of 4 KiB reads (Fig. 4a), 1.06 context
// switches and 31.7K cycles per I/O (§V Q1).
func (s *Scheduler) Overheads() blk.Overheads {
	return blk.Overheads{
		SubmitCPU:   2600 * sim.Nanosecond,
		CompleteCPU: 1500 * sim.Nanosecond,
		LockHold:    2100 * sim.Nanosecond,
		CtxPerIO:    1.06,
		CyclesPerIO: 31700,
	}
}
