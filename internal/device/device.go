package device

import (
	"fmt"
	"sort"

	"isolbench/internal/fault"
	"isolbench/internal/obs/attr"
	"isolbench/internal/sim"
)

// Stats is a snapshot of device-side accounting.
type Stats struct {
	ReadsCompleted  uint64
	WritesCompleted uint64
	ReadBytes       int64
	WriteBytes      int64
	Inflight        int
	GCActive        bool
	GCDebtBytes     int64
	ChannelBusy     sim.Duration // summed over channels
	PipeBusy        sim.Duration
	GCEvents        uint64

	// Fault-injection accounting (all zero without an injector).
	FaultErrors uint64 // completions flagged with a transient error
	FaultDrops  uint64 // requests lost inside the device
	FaultSpikes uint64 // isolated latency spikes applied
}

// Device is one simulated NVMe SSD. Submit requests with Submit after
// checking CanAccept; completions arrive through the OnDone hook and
// then the request's own OnComplete callback.
type Device struct {
	eng  *sim.Engine
	prof Profile
	rng  *sim.RNG
	pipe *pipe

	// OnDone, when set, observes every completion before the request's
	// own OnComplete fires. The block layer uses it to refill the
	// device queue.
	OnDone func(*Request)

	// OnGC, when set, observes garbage-collection state changes:
	// active=true when GC starts seizing channels, then once per drain
	// slice with the remaining debt, and active=false when it stops.
	// The observability layer samples GC pressure through it.
	OnGC func(active bool, debtBytes int64)

	inflight int
	busy     int // channels in service
	seized   int // channels held by GC
	waiting  reqRing

	// Persistent timer callbacks, built once in New so the hot path
	// schedules them with zero allocations (arg carries the request).
	xferCB   sim.Callback
	finishCB sim.Callback
	gcTickCB sim.Callback

	written int64 // cumulative user write bytes (preconditioning state)
	gcDebt  int64
	gcOn    bool

	// Fault injection (nil on the healthy path — no branch of the hot
	// path touches the injector when it is absent).
	flt  *fault.Injector
	lost map[*Request]struct{} // dropped requests awaiting blk abort

	stats       Stats
	channelBusy sim.Duration

	// Attribution state (nil/zero when wait-for-whom accounting is off;
	// nothing below is touched on the hot path in that case).
	attrT     *attr.Tracker
	attrLed   *attr.Ledger // service-grant stream, LayerDevQueue
	gcWins    [8]gcWin     // recent GC windows, oldest evicted first
	gcWinHead int
	gcWinN    int
	gcContrib map[int]int64 // per-cgroup cumulative GC debt contributed
	gcIDs     []int         // sorted keys of gcContrib
	gcWeights []attr.AggrWeight
}

// gcWin is one garbage-collection activity window; to == 0 marks the
// window still open.
type gcWin struct {
	from, to sim.Time
}

// New constructs a device from the profile. The seed isolates this
// device's jitter stream from every other component.
func New(eng *sim.Engine, prof Profile, seed uint64) (*Device, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	d := &Device{eng: eng, prof: prof, rng: sim.NewRNG(seed)}
	d.pipe = newPipe(eng, prof.ReadRate, d.transferDone)
	d.xferCB = func(arg any) {
		r := arg.(*Request)
		// transferDemand is evaluated at fire time: it reads the pipe's
		// current write share and fault state, which may have changed
		// since the access delay was armed.
		d.pipe.add(r, d.transferDemand(r))
	}
	d.finishCB = func(arg any) { d.finish(arg.(*Request)) }
	d.gcTickCB = func(any) { d.gcDrainSlice() }
	return d, nil
}

// Profile returns the device's performance model.
func (d *Device) Profile() Profile { return d.prof }

// SetAttribution enables wait-for-whom accounting: channel waits are
// charged against the service-grant stream, with GC-overlapped wait
// split among the cgroups whose write debt triggered the collection.
// Passing nil disables it.
func (d *Device) SetAttribution(t *attr.Tracker) {
	d.attrT = t
	if t == nil {
		d.attrLed = nil
		d.gcContrib = nil
		return
	}
	d.attrLed = t.NewLedger(attr.LayerDevQueue)
	d.gcContrib = make(map[int]int64)
}

// AttachFaults installs a fault injector. Call before the run starts;
// passing nil restores healthy behaviour.
func (d *Device) AttachFaults(in *fault.Injector) {
	d.flt = in
	if in != nil && d.lost == nil {
		d.lost = make(map[*Request]struct{})
	}
}

// Abort reclaims a request the blk-layer watchdog timed out. It
// returns true when the request was lost inside the device — the
// queue-depth slot is freed and the request will never complete — and
// false when the request is still in service (it will complete
// eventually; the caller keeps ownership decisions to itself).
func (d *Device) Abort(r *Request) bool {
	if _, ok := d.lost[r]; !ok {
		return false
	}
	delete(d.lost, r)
	d.inflight--
	return true
}

// CanAccept reports whether the device queue has room for one more
// request (inflight < nr_requests).
func (d *Device) CanAccept() bool { return d.inflight < d.prof.MaxQD }

// Inflight returns the number of requests inside the device.
func (d *Device) Inflight() int { return d.inflight }

// Stats returns a snapshot of device accounting.
func (d *Device) Stats() Stats {
	s := d.stats
	s.Inflight = d.inflight
	s.GCActive = d.gcOn
	s.GCDebtBytes = d.gcDebt
	s.ChannelBusy = d.channelBusy
	s.PipeBusy = d.pipe.busyNs
	return s
}

// Precondition marks the device as aged: the SLC/fresh region is spent,
// so writes run at steady-state amplification immediately. This mirrors
// the paper's sequential-fill + random-overwrite preconditioning.
func (d *Device) Precondition() { d.written = d.prof.FreshBytes + 1 }

// CheckInvariants asserts the device's internal bounds: queue depth,
// channel occupancy, GC debt, and byte counters can only drift outside
// these ranges through an accounting bug. It returns every violated
// law, or nil when all hold.
func (d *Device) CheckInvariants() []string {
	var v []string
	name := d.prof.Name
	if d.inflight < 0 || d.inflight > d.prof.MaxQD {
		v = append(v, fmt.Sprintf("device %s: inflight %d outside [0,%d]",
			name, d.inflight, d.prof.MaxQD))
	}
	if d.busy < 0 || d.busy > d.prof.Channels {
		v = append(v, fmt.Sprintf("device %s: %d busy channels outside [0,%d]",
			name, d.busy, d.prof.Channels))
	}
	if d.gcDebt < 0 {
		v = append(v, fmt.Sprintf("device %s: negative GC debt %d", name, d.gcDebt))
	}
	if d.stats.ReadBytes < 0 || d.stats.WriteBytes < 0 {
		v = append(v, fmt.Sprintf("device %s: negative byte counters r=%d w=%d",
			name, d.stats.ReadBytes, d.stats.WriteBytes))
	}
	// waiting, in-service, and lost requests are disjoint subsets of the
	// inflight population (the remainder is requests riding out a
	// die-collision delay), so the parts can never exceed the whole.
	if held := d.waiting.len() + d.busy + len(d.lost); held > d.inflight {
		v = append(v, fmt.Sprintf(
			"device %s: waiting(%d)+busy(%d)+lost(%d) exceed inflight(%d)",
			name, d.waiting.len(), d.busy, len(d.lost), d.inflight))
	}
	return v
}

// Submit enqueues a request. It panics if the device is full: the block
// layer must gate on CanAccept.
func (d *Device) Submit(r *Request) {
	if !d.CanAccept() {
		panic(fmt.Sprintf("device %s: submit past MaxQD=%d", d.prof.Name, d.prof.MaxQD))
	}
	d.inflight++
	r.Dispatch = d.eng.Now()
	if d.flt != nil && d.flt.DropRequest() {
		// Lost command: it holds its queue-depth slot and never
		// completes. Only the blk timeout watchdog (Abort) reclaims it.
		d.lost[r] = struct{}{}
		d.stats.FaultDrops++
		return
	}
	if d.busy < d.availableChannels() {
		d.startService(r)
	} else {
		d.waiting.push(r)
	}
}

func (d *Device) availableChannels() int {
	n := d.prof.Channels - d.seized
	if d.flt != nil {
		n -= d.flt.SeizedChannels(d.eng.Now())
	}
	if n < 1 {
		n = 1 // GC/storms never block the device entirely
	}
	return n
}

// startService occupies a channel: the access phase runs for the medium
// latency, then the transfer phase moves bytes through the shared pipe.
// Die collisions add completion latency without consuming channel or
// pipe capacity (the waiting request's die time is already accounted
// by the request it waits behind).
func (d *Device) startService(r *Request) {
	now := d.eng.Now()
	if d.attrT != nil {
		if r.Blame != nil && now > r.Dispatch {
			d.chargeDevWait(r, now)
		}
		d.attrLed.Extend(now, r.Cgroup)
	}
	d.busy++
	r.Service = now
	access := d.accessTime(r)
	if d.prof.CollisionFactor > 0 && d.busy > 1 {
		if d.rng.Float64() < float64(d.busy-1)/float64(d.prof.Channels) {
			base := d.prof.ReadAccess
			if r.Op == Write {
				base = d.prof.WriteAccess
			}
			r.extraLat = d.rng.ExpDuration(sim.Duration(float64(base) * d.prof.CollisionFactor))
		}
	}
	d.channelBusy += access
	d.eng.AfterCall(access, d.xferCB, r)
}

// chargeDevWait attributes the channel wait [r.Dispatch, now). The
// parts of the wait overlapping a GC window are blamed on the cgroups
// whose write debt triggered collection (split by cumulative
// contribution); the rest is charged against the service-grant stream,
// with idle gaps falling back to the request's own cgroup. The pieces
// tile the interval exactly, preserving per-request conservation.
func (d *Device) chargeDevWait(r *Request, now sim.Time) {
	from, to := r.Dispatch, now
	cur := from
	for i := 0; i < d.gcWinN && cur < to; i++ {
		w := d.gcWins[(d.gcWinHead-d.gcWinN+i+2*len(d.gcWins))%len(d.gcWins)]
		wTo := w.to
		if wTo == 0 || wTo > now {
			wTo = now // window still open
		}
		if wTo <= cur || w.from >= to {
			continue
		}
		if w.from > cur {
			d.attrLed.ChargeSpan(r.Blame, cur, w.from, r.Cgroup)
			cur = w.from
		}
		end := wTo
		if end > to {
			end = to
		}
		if end > cur {
			d.chargeGC(r, end.Sub(cur))
			cur = end
		}
	}
	if cur < to {
		d.attrLed.ChargeSpan(r.Blame, cur, to, r.Cgroup)
	}
}

// chargeGC splits a GC-overlapped wait among the contributing cgroups
// in proportion to the write debt each has accumulated.
func (d *Device) chargeGC(r *Request, dur sim.Duration) {
	ws := d.gcWeights[:0]
	for _, id := range d.gcIDs {
		if v := d.gcContrib[id]; v > 0 {
			ws = append(ws, attr.AggrWeight{Aggr: id, W: float64(v)})
		}
	}
	d.gcWeights = ws
	d.attrT.ChargeSplit(r.Blame, attr.LayerGC, ws, r.Cgroup, dur)
}

// noteGCDebt records a cgroup's contribution to the collection debt.
func (d *Device) noteGCDebt(cg int, delta int64) {
	if d.attrT == nil || delta <= 0 {
		return
	}
	if _, ok := d.gcContrib[cg]; !ok {
		i := sort.SearchInts(d.gcIDs, cg)
		d.gcIDs = append(d.gcIDs, 0)
		copy(d.gcIDs[i+1:], d.gcIDs[i:])
		d.gcIDs[i] = cg
	}
	d.gcContrib[cg] += delta
}

// gcWindowOpen/Close maintain the bounded ring of GC activity windows
// that chargeDevWait overlaps waits against.
func (d *Device) gcWindowOpen(now sim.Time) {
	if d.attrT == nil {
		return
	}
	d.gcWins[d.gcWinHead] = gcWin{from: now}
	d.gcWinHead = (d.gcWinHead + 1) % len(d.gcWins)
	if d.gcWinN < len(d.gcWins) {
		d.gcWinN++
	}
}

func (d *Device) gcWindowClose(now sim.Time) {
	if d.attrT == nil {
		return
	}
	i := (d.gcWinHead - 1 + len(d.gcWins)) % len(d.gcWins)
	if d.gcWinN > 0 && d.gcWins[i].to == 0 {
		d.gcWins[i].to = now
	}
}

// accessTime returns the jittered medium-access latency for r.
func (d *Device) accessTime(r *Request) sim.Duration {
	var base sim.Duration
	switch {
	case r.Op == Read && r.Seq:
		base = d.prof.SeqReadAccess
	case r.Op == Read:
		base = d.prof.ReadAccess
	case r.Seq:
		base = d.prof.SeqWriteAccess
	default:
		base = d.prof.WriteAccess
	}
	t := d.rng.Jitter(base, d.prof.AccessJitter)
	if d.prof.TailProb > 0 && d.rng.Float64() < d.prof.TailProb {
		t = sim.Duration(float64(t) * d.prof.TailFactor)
	}
	if r.Op == Write && d.gcOn && d.prof.GCStallProb > 0 && d.rng.Float64() < d.prof.GCStallProb {
		t += d.rng.Jitter(d.prof.GCStall, 0.5)
	}
	if d.flt != nil {
		if f := d.flt.AccessFactor(d.eng.Now()); f != 1 {
			t = sim.Duration(float64(t) * f)
		}
		if extra := d.flt.SpikeExtra(); extra > 0 {
			t += extra
			d.stats.FaultSpikes++
		}
	}
	return t
}

// transferDemand converts a request into pipe service units
// (read-equivalent bytes). Writes carry amplification; reads carry the
// read/write interference penalty proportional to the share of active
// write flows.
func (d *Device) transferDemand(r *Request) float64 {
	size := float64(r.Size)
	var demand float64
	switch {
	case r.Op == Read && r.Seq:
		demand = size * d.prof.ReadRate / d.prof.SeqReadRate
	case r.Op == Read:
		demand = size * (1 + d.prof.RWInterference*d.pipe.writeShare())
	default:
		rate := d.prof.WriteRate
		if r.Seq {
			rate = d.prof.SeqWriteRate
		}
		demand = size * d.writeAmp() * d.prof.ReadRate / rate
	}
	if d.flt != nil {
		// A degradation window scales deliverable throughput down, which
		// in read-equivalent units means each byte demands more service.
		if f := d.flt.ThroughputFactor(d.eng.Now()); f < 1 {
			demand /= f
		}
	}
	return demand
}

// writeAmp returns the current write-amplification factor.
func (d *Device) writeAmp() float64 {
	if d.written <= d.prof.FreshBytes {
		return d.prof.WriteAmpFresh
	}
	return d.prof.WriteAmpSteady
}

// transferDone frees the channel, admits waiting work, and finishes
// the request — after its die-collision delay, if it drew one.
func (d *Device) transferDone(r *Request) {
	d.busy--
	for d.busy < d.availableChannels() && d.waiting.len() > 0 {
		d.startService(d.waiting.pop())
	}
	if r.extraLat > 0 {
		extra := r.extraLat
		r.extraLat = 0
		d.eng.AfterCall(extra, d.finishCB, r)
		return
	}
	d.finish(r)
}

// finish performs completion accounting and delivers callbacks.
func (d *Device) finish(r *Request) {
	d.inflight--
	r.Complete = d.eng.Now()
	if d.flt != nil && d.flt.FailRequest() {
		r.Failed = true
	}
	if r.Failed {
		// A transient command error: no data moved, so no byte/IO
		// accounting and no write-debt contribution. The blk layer
		// decides whether to retry.
		d.stats.FaultErrors++
	} else if r.Op == Write {
		d.stats.WritesCompleted++
		d.stats.WriteBytes += r.Size
		d.written += r.Size
		delta := int64(float64(r.Size) * (d.writeAmp() - 1))
		d.gcDebt += delta
		d.noteGCDebt(r.Cgroup, delta)
		d.maybeStartGC()
	} else {
		d.stats.ReadsCompleted++
		d.stats.ReadBytes += r.Size
	}
	if d.OnDone != nil {
		d.OnDone(r)
	}
	if r.OnComplete != nil {
		r.OnComplete(r)
	}
}

// maybeStartGC begins background collection once debt crosses the high
// watermark: GC seizes channels and drains debt until the low
// watermark.
func (d *Device) maybeStartGC() {
	if d.gcOn || d.gcDebt < d.prof.GCHighBytes || d.prof.GCChannels <= 0 {
		return
	}
	d.gcOn = true
	d.seized = d.prof.GCChannels
	d.stats.GCEvents++
	d.gcWindowOpen(d.eng.Now())
	if d.OnGC != nil {
		d.OnGC(true, d.gcDebt)
	}
	d.gcTick()
}

// gcSlice is the GC drain granularity: debt retires in 10 ms slices so
// throttled knobs observe GC as a gradual capacity loss rather than a
// single stall.
const gcSlice = 10 * sim.Millisecond

// gcTick arms the next drain slice.
func (d *Device) gcTick() {
	d.eng.AfterCall(gcSlice, d.gcTickCB, nil)
}

// gcDrainSlice retires one slice worth of debt and re-arms until the
// low watermark is reached.
func (d *Device) gcDrainSlice() {
	d.gcDebt -= int64(d.prof.GCDrainRate * gcSlice.Seconds())
	if d.gcDebt <= d.prof.GCLowBytes {
		if d.gcDebt < 0 {
			d.gcDebt = 0
		}
		d.gcOn = false
		d.seized = 0
		d.gcWindowClose(d.eng.Now())
		if d.OnGC != nil {
			d.OnGC(false, d.gcDebt)
		}
		for d.busy < d.availableChannels() && d.waiting.len() > 0 {
			d.startService(d.waiting.pop())
		}
		return
	}
	if d.OnGC != nil {
		d.OnGC(true, d.gcDebt)
	}
	d.gcTick()
}

// reqRing is a growable FIFO of requests (amortized O(1) push/pop
// without per-element allocation).
type reqRing struct {
	buf        []*Request
	head, tail int
	n          int
}

func (q *reqRing) len() int { return q.n }

func (q *reqRing) push(r *Request) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail] = r
	q.tail = (q.tail + 1) % len(q.buf)
	q.n++
}

func (q *reqRing) pop() *Request {
	if q.n == 0 {
		return nil
	}
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return r
}

func (q *reqRing) grow() {
	size := len(q.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]*Request, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head, q.tail = 0, q.n
}
