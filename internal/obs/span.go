package obs

import (
	"isolbench/internal/device"
	"isolbench/internal/obs/attr"
	"isolbench/internal/sim"
)

// Stage indexes one contiguous segment of a request's path from the
// application to the flash and back. Stages tile the request's life:
// summing a span's stage durations reproduces its end-to-end latency
// exactly.
type Stage int

// The five stages of the simulated request path.
const (
	// StageThrottle: workload submit to scheduler arrival — the
	// submission-path CPU cost plus any cgroup-controller throttle hold
	// (io.max tokens, io.latency queue-depth gate, io.cost vtime debt).
	StageThrottle Stage = iota
	// StageSched: scheduler queue residency, from insertion until the
	// scheduler hands the request to the dispatch path (BFQ slice
	// waits and idling, MQ-DL priority blocking live here).
	StageSched
	// StageDispatch: dispatch-lock wait between the scheduler's
	// decision and the device accepting the request.
	StageDispatch
	// StageDevQueue: inside the device but waiting for a free flash
	// channel (die/channel contention, GC channel seizure).
	StageDevQueue
	// StageDevice: channel access + transfer service, including
	// die-collision delay.
	StageDevice
	// NumStages counts the stages; it doubles as the pseudo-stage id
	// for end-to-end rows in summaries.
	NumStages
)

func (s Stage) String() string {
	switch s {
	case StageThrottle:
		return "throttle"
	case StageSched:
		return "sched"
	case StageDispatch:
		return "dispatch"
	case StageDevQueue:
		return "devqueue"
	case StageDevice:
		return "device"
	default:
		return "total"
	}
}

// Span is one completed request's stage decomposition. For requests
// that went through the recovery path, the stage durations describe the
// final attempt; Retries counts the earlier ones and Failed marks a
// request the recovery path gave up on.
type Span struct {
	ID      uint64
	Cgroup  int
	App     int
	Op      device.Op
	Size    int64
	Submit  sim.Time
	Stages  [NumStages]sim.Duration
	Retries int
	Failed  bool

	// Blame is the request's wait-for-whom breakdown (nil when
	// attribution is off): each charge names the layer the request
	// waited at and the cgroup occupying the resource.
	Blame []attr.Charge
}

// Total returns the sum of the stage durations, which by construction
// equals the request's end-to-end latency.
func (sp Span) Total() sim.Duration {
	var t sim.Duration
	for _, d := range sp.Stages {
		t += d
	}
	return t
}

// SpanOf decomposes a completed request into stage durations using the
// lifecycle timestamps stamped along the path. Missing timestamps
// (a request that never waited at a boundary) collapse that stage to
// zero rather than producing negative durations.
func SpanOf(r *device.Request) Span {
	sp := Span{
		ID:      r.ID,
		Cgroup:  r.Cgroup,
		App:     r.AppID,
		Op:      r.Op,
		Size:    r.Size,
		Submit:  r.Submit,
		Stages:  stagesOf(r),
		Retries: r.Attempts,
		Failed:  r.Failed || r.TimedOut,
	}
	if cs := r.Blame.Charges(); len(cs) > 0 {
		sp.Blame = append([]attr.Charge(nil), cs...)
	}
	return sp
}

// stagesOf returns the request's stage durations.
func stagesOf(r *device.Request) [NumStages]sim.Duration {
	// Clamp each boundary to be monotonically non-decreasing so a
	// skipped stamp (e.g. noop path) yields a zero stage.
	t0 := r.Submit
	t1 := clampT(r.Queued, t0)
	t2 := clampT(r.SchedOut, t1)
	t3 := clampT(r.Dispatch, t2)
	t4 := clampT(r.Service, t3)
	t5 := clampT(r.Complete, t4)
	return [NumStages]sim.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t5.Sub(t4)}
}

func clampT(t, floor sim.Time) sim.Time {
	if t < floor {
		return floor
	}
	return t
}

// spanRec is one ring entry, 64 bytes and pointer-free, so the ring
// costs half a Span per entry and the garbage collector never scans
// it. Durations are 32-bit nanoseconds; a span whose stages, age or
// size do not fit is marked wide and keeps its exact values in
// spanRing.wide. Its nblame charges sit in the ring's charge arena
// right after those of the record before it.
type spanRec struct {
	id      uint64
	submit  sim.Time
	stages  [NumStages]uint32
	done    uint32 // instant recorded (its completion), after submit
	size    int32
	cgroup  int32
	app     int32
	retries int32
	nblame  uint32
	op      device.Op
	failed  bool
	wide    bool
}

// wideSpan holds the exact values of a wide record.
type wideSpan struct {
	stages [NumStages]sim.Duration
	at     sim.Time
	size   int64
}

// charge is the arena's 12-byte, pointer-free form of an attr.Charge.
// The wait is split into 48 bits (78 hours of virtual time).
type charge struct {
	dLo   uint32
	dHi   uint16
	layer attr.Layer
	aggr  int32
}

// spanRing keeps the newest cap spans, evicting whole instants: it
// drops the spans of its oldest completion instant only while at least
// cap spans remain, so an instant that straddles the cut is kept whole
// (the ring then briefly holds a few more than cap). Which spans of
// such an instant are the newest depends on same-instant recording
// order, which differs between a single engine and shards; keeping
// the instant whole lets Spans pick them by a rule both agree on.
//
// Each span's blame charges go to a FIFO arena owned by the ring:
// appended when the span is pushed and released when it is evicted,
// so in steady state recording a span allocates nothing.
type spanRing struct {
	recs    []spanRec // circular; len grows to cap plus rare slack
	head, n int
	cap     int
	pushed  uint64 // spans ever recorded; the newest has number pushed-1

	wide map[uint64]wideSpan // by span number

	arena       []charge
	aHead, aLen int
}

// push records a span completing at instant at.
func (s *spanRing) push(r *device.Request, at sim.Time, st *[NumStages]sim.Duration) {
	for s.n >= s.cap {
		// Evict the oldest instant if at least cap spans outlive it,
		// counting the new one (which can only join it when every
		// retained span shares its instant).
		first, g := s.recAt(0), 0
		if first == at {
			break
		}
		for g < s.n && s.recAt(g) == first {
			g++
		}
		if s.n+1-g < s.cap {
			break
		}
		for ; g > 0; g-- {
			s.evict()
		}
	}
	if s.n == len(s.recs) {
		s.grow()
	}
	cs := r.Blame.Charges()
	rec := spanRec{
		id:      r.ID,
		submit:  r.Submit,
		done:    uint32(at - r.Submit),
		size:    int32(r.Size),
		cgroup:  int32(r.Cgroup),
		app:     int32(r.AppID),
		retries: int32(r.Attempts),
		nblame:  uint32(len(cs)),
		op:      r.Op,
		failed:  r.Failed || r.TimedOut,
	}
	rec.wide = int64(rec.done) != int64(at-r.Submit) || int64(rec.size) != r.Size
	for i, d := range st {
		rec.stages[i] = uint32(d)
		rec.wide = rec.wide || int64(rec.stages[i]) != int64(d)
	}
	if rec.wide {
		if s.wide == nil {
			s.wide = make(map[uint64]wideSpan)
		}
		s.wide[s.pushed] = wideSpan{stages: *st, at: at, size: r.Size}
	}
	s.recs[(s.head+s.n)%len(s.recs)] = rec
	s.n++
	s.pushed++
	s.appendCharges(cs)
}

// recAt returns the completion instant of the i-th oldest record.
func (s *spanRing) recAt(i int) sim.Time {
	rec := &s.recs[(s.head+i)%len(s.recs)]
	if rec.wide {
		return s.wide[s.pushed-uint64(s.n)+uint64(i)].at
	}
	return rec.submit + sim.Time(rec.done)
}

// evict drops the oldest record and releases its charges.
func (s *spanRing) evict() {
	rec := &s.recs[s.head]
	if rec.wide {
		delete(s.wide, s.pushed-uint64(s.n))
	}
	if rec.nblame > 0 {
		s.aHead = (s.aHead + int(rec.nblame)) % len(s.arena)
		s.aLen -= int(rec.nblame)
	}
	s.head = (s.head + 1) % len(s.recs)
	s.n--
}

// grow enlarges the full record ring: doubling up to cap while it
// fills, then by a small slack for an instant straddling the cut.
func (s *spanRing) grow() {
	size := min(max(2*len(s.recs), 64), s.cap)
	if size <= len(s.recs) {
		size = len(s.recs) + max(16, s.cap/64)
	}
	grown := make([]spanRec, size)
	for i := 0; i < s.n; i++ {
		grown[i] = s.recs[(s.head+i)%len(s.recs)]
	}
	s.recs, s.head = grown, 0
}

func (s *spanRing) appendCharges(cs []attr.Charge) {
	if len(cs) == 0 {
		return
	}
	if need := s.aLen + len(cs); need > len(s.arena) {
		grown := make([]charge, max(need+need/2, 64))
		for i := 0; i < s.aLen; i++ {
			grown[i] = s.arena[(s.aHead+i)%len(s.arena)]
		}
		s.arena, s.aHead = grown, 0
	}
	for _, c := range cs {
		s.arena[(s.aHead+s.aLen)%len(s.arena)] = charge{
			dLo: uint32(c.D), dHi: uint16(c.D >> 32), layer: c.Layer, aggr: int32(c.Aggr),
		}
		s.aLen++
	}
}

// appendTo appends the retained spans, oldest first, each with its
// completion instant. Blame slices share one backing array.
func (s *spanRing) appendTo(out []timedSpan) []timedSpan {
	blame := make([]attr.Charge, s.aLen)
	next := 0
	for i := 0; i < s.n; i++ {
		rec := &s.recs[(s.head+i)%len(s.recs)]
		sp := Span{
			ID:      rec.id,
			Cgroup:  int(rec.cgroup),
			App:     int(rec.app),
			Op:      rec.op,
			Size:    int64(rec.size),
			Submit:  rec.submit,
			Retries: int(rec.retries),
			Failed:  rec.failed,
		}
		at := rec.submit + sim.Time(rec.done)
		if rec.wide {
			w := s.wide[s.pushed-uint64(s.n)+uint64(i)]
			sp.Stages, sp.Size, at = w.stages, w.size, w.at
		} else {
			for j, d := range rec.stages {
				sp.Stages[j] = sim.Duration(d)
			}
		}
		if k := int(rec.nblame); k > 0 {
			for j := 0; j < k; j++ {
				c := s.arena[(s.aHead+next+j)%len(s.arena)]
				blame[next+j] = attr.Charge{
					Layer: c.layer, Aggr: int(c.aggr), D: sim.Duration(c.dLo) | sim.Duration(c.dHi)<<32,
				}
			}
			sp.Blame = blame[next : next+k : next+k]
			next += k
		}
		out = append(out, timedSpan{at: at, sp: sp})
	}
	return out
}

// timedSpan is a span with the instant it was recorded: the key spans
// are ordered and merged by.
type timedSpan struct {
	at sim.Time
	sp Span
}
