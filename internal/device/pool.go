package device

import "fmt"

// Pool is a deterministic freelist of Requests backed by arena chunks.
// It is the allocation source for the whole request lifecycle: apps Get
// a request at submit time and Put it back at reap time, so steady
// state recycles a bounded working set (roughly the sum of queue
// depths) instead of allocating per I/O.
//
// Ownership rules (see DESIGN.md "Memory model & sharding"):
//
//   - A Pool is single-threaded state. It belongs to exactly one
//     engine — the app's engine — and must only be touched from events
//     running on that engine. Sharded fleets therefore build one pool
//     per shard; this is also why sync.Pool is unusable here: its
//     cross-goroutine reuse order is nondeterministic, which would
//     break the byte-identical determinism contract.
//   - Between Get and Put the request is owned by whichever layer
//     currently holds it (workload → blk → iosched/ioctl → device);
//     only the reap path calls Put, and only after the request has
//     fully left the device and queue (lost requests stay out until
//     the recovery path hands them back to the app).
//   - Put resets every field (pinned by TestRequestResetCoversAllFields)
//     so no state leaks between incarnations.
type Pool struct {
	free  []*Request
	chunk []Request // current arena block, carved sequentially
	gets  uint64
	puts  uint64
}

// poolChunk is the arena block size. Requests from one block share
// cache locality; blocks are never freed while the pool lives.
const poolChunk = 256

// NewPool returns an empty pool. Chunks are carved lazily on first Get.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed request, recycling a freed one when available.
func (p *Pool) Get() *Request {
	p.gets++
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return r
	}
	if len(p.chunk) == 0 {
		p.chunk = make([]Request, poolChunk)
	}
	r := &p.chunk[0]
	p.chunk = p.chunk[1:]
	r.Reset()
	return r
}

// Put resets r and returns it to the freelist. The caller must not
// retain r afterwards. Putting a request whose Watchdog is still armed
// panics: the engine's timer slot table points into the request, so
// resetting or reusing it would corrupt the timer heap.
func (p *Pool) Put(r *Request) {
	if r.Watchdog.Pending() {
		panic(fmt.Sprintf("device: pooled request %d with its watchdog still armed", r.ID))
	}
	p.puts++
	r.Reset()
	p.free = append(p.free, r)
}

// Stats reports lifetime Get/Put counts, for leak checks in tests.
func (p *Pool) Stats() (gets, puts uint64) { return p.gets, p.puts }
