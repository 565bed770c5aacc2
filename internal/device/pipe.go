package device

import "isolbench/internal/sim"

// pipe is a processor-sharing server modelling the SSD's shared medium
// (NAND dies + internal interconnect). Every in-flight transfer is a
// flow; the pipe serves flows at equal rates, so a flow's instantaneous
// byte rate is rate/n. Demands are expressed in "read-equivalent
// bytes": writes and interfered reads carry per-byte cost multipliers,
// so heterogeneous traffic shares one server.
//
// Implementation: virtual service S(t) advances at rate/n per second.
// A flow arriving with demand D finishes when S reaches S_arrival + D,
// so completions are a min-heap on finish-S and every event is
// O(log n).
type pipe struct {
	eng   *sim.Engine
	rate  float64 // service units (read-equivalent bytes) per second
	s     float64 // cumulative per-flow service
	lastT sim.Time
	flows flowHeap
	timer sim.Timer // next completion; moved in place on every change
	done  func(*Request)

	nWrite int // active write flows, for interference bookkeeping

	busyNs   sim.Duration // time with >= 1 active flow
	unitsOut float64
}

func newPipe(eng *sim.Engine, rate float64, done func(*Request)) *pipe {
	return &pipe{eng: eng, rate: rate, done: done}
}

// advance brings the virtual service S up to the current time.
func (p *pipe) advance() {
	now := p.eng.Now()
	if n := len(p.flows); n > 0 && now > p.lastT {
		dt := now.Sub(p.lastT).Seconds()
		p.s += p.rate * dt / float64(n)
		p.busyNs += now.Sub(p.lastT)
		p.unitsOut += p.rate * dt
	}
	p.lastT = now
}

// add enters a request with the given demand (in service units).
func (p *pipe) add(r *Request, demand float64) {
	p.advance()
	if demand < 1 {
		demand = 1
	}
	r.finishS = p.s + demand
	p.flows.push(r)
	if r.Op == Write {
		p.nWrite++
	}
	p.reschedule()
}

// writeShare returns the fraction of active flows that are writes.
func (p *pipe) writeShare() float64 {
	if len(p.flows) == 0 {
		return 0
	}
	return float64(p.nWrite) / float64(len(p.flows))
}

// reschedule moves the completion timer to the head flow's finish.
func (p *pipe) reschedule() {
	if len(p.flows) == 0 {
		p.eng.Cancel(&p.timer)
		return
	}
	head := p.flows[0]
	remaining := head.finishS - p.s
	if remaining < 0 {
		remaining = 0
	}
	wait := sim.Duration(remaining * float64(len(p.flows)) / p.rate * float64(sim.Second))
	// Round up: a truncated wait would fire at the same instant with
	// the head still fractionally unserved and spin forever.
	wait++
	p.eng.Reschedule(&p.timer, p.eng.Now().Add(wait), pipeCompleteCB, p)
}

// pipeCompleteCB is the persistent completion callback: every arrival
// or departure reschedules it, so an allocated closure here would be
// the hottest allocation in the simulator.
func pipeCompleteCB(arg any) { arg.(*pipe).completeReady() }

// completeReady pops every flow whose demand has been served.
func (p *pipe) completeReady() {
	p.advance()
	const eps = 1e-6
	for len(p.flows) > 0 && p.flows[0].finishS <= p.s+eps {
		r := p.flows.pop()
		if r.Op == Write {
			p.nWrite--
		}
		p.done(r)
	}
	p.reschedule()
}

// flowHeap is a min-heap of requests keyed by finishS. A hand-rolled
// heap (rather than container/heap) avoids interface boxing on the
// hottest path in the simulator.
type flowHeap []*Request

func (h *flowHeap) push(r *Request) {
	*h = append(*h, r)
	i := len(*h) - 1
	(*h)[i].heapIdx = i
	h.up(i)
}

func (h *flowHeap) pop() *Request {
	old := *h
	r := old[0]
	n := len(old)
	old[0] = old[n-1]
	old[0].heapIdx = 0
	*h = old[:n-1]
	if len(*h) > 0 {
		h.down(0)
	}
	r.heapIdx = -1
	return r
}

func (h flowHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].finishS <= h[i].finishS {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h flowHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].finishS < h[smallest].finishS {
			smallest = l
		}
		if r < n && h[r].finishS < h[smallest].finishS {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h flowHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
