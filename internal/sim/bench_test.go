package sim

import (
	"container/heap"
	"testing"
)

// BenchmarkEngineEvent measures raw event scheduling+dispatch cost,
// the floor under every simulated I/O.
func BenchmarkEngineEvent(b *testing.B) {
	e := NewEngine()
	var fn func()
	fn = func() {
		e.After(100, fn)
	}
	e.After(100, fn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkRNGExpDuration(b *testing.B) {
	r := NewRNG(1)
	var sink Duration
	for i := 0; i < b.N; i++ {
		sink += r.ExpDuration(1000)
	}
	_ = sink
}

// boxedEventHeap is the pre-rewrite container/heap implementation,
// kept as the baseline side of BenchmarkEngineHotLoop: every Push
// boxes a key into an interface, allocating per call.
type boxedEventHeap []eventKey

func (h boxedEventHeap) Len() int { return len(h) }
func (h boxedEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h boxedEventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedEventHeap) Push(x interface{}) { *h = append(*h, x.(eventKey)) }
func (h *boxedEventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// BenchmarkEngineHotLoop measures the engine's steady-state queue
// operation — pop the earliest event, push its successor — with a deep
// pending population, for the specialized 4-ary heap vs the old
// container/heap implementation. The 4-ary side must report
// 0 allocs/op.
func BenchmarkEngineHotLoop(b *testing.B) {
	const pending = 256
	b.Run("heap4", func(b *testing.B) {
		e := NewEngine()
		var seq uint64
		for i := 0; i < pending; i++ {
			seq++
			e.push(eventKey{at: Time(i), seq: seq})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := e.pop()
			seq++
			e.push(eventKey{at: ev.at + pending, seq: seq})
		}
	})
	b.Run("container-heap", func(b *testing.B) {
		var h boxedEventHeap
		var seq uint64
		for i := 0; i < pending; i++ {
			seq++
			heap.Push(&h, eventKey{at: Time(i), seq: seq})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := heap.Pop(&h).(eventKey)
			seq++
			heap.Push(&h, eventKey{at: ev.at + pending, seq: seq})
		}
	})
}

// BenchmarkEngineTimer measures the in-place timer path under a
// reschedule-heavy load: a plain event chain where every firing moves
// one of 64 timers to a fresh deadline, as a device pipe does on every
// arrival. About half the reschedules catch a timer still pending and
// move it in place; the rest re-arm one that already fired. One op is
// one Step. Must report 0 allocs/op.
func BenchmarkEngineTimer(b *testing.B) {
	const timers = 64
	e := NewEngine()
	tms := make([]Timer, timers)
	var k int
	fire := func(any) {}
	var tick Callback
	tick = func(any) {
		k++
		e.Reschedule(&tms[k%timers], e.Now().Add(Duration(6000+k%1000)), fire, nil)
		e.AfterCall(100, tick, nil)
	}
	e.AfterCall(100, tick, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineTimerDeep measures the timer heap at fleet depth: 512
// armed timers, where the root fires and its callback re-arms it a
// pseudo-random distance ahead, as the io.cost release timers of a
// 1000-tenant fleet do. One op is one Step. Must report 0 allocs/op.
func BenchmarkEngineTimerDeep(b *testing.B) {
	const timers = 512
	e := NewEngine()
	tms := make([]Timer, timers)
	var k uint64
	var rearm Callback
	rearm = func(arg any) {
		k = k*6364136223846793005 + 1442695040888963407
		e.Reschedule(arg.(*Timer), e.Now().Add(Duration(4000+k>>54)), rearm, arg)
	}
	for i := range tms {
		e.Reschedule(&tms[i], Time(i*8), rearm, &tms[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
