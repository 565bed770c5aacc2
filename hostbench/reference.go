package main

import (
	"crypto/sha256"
	"slices"
	"time"
)

// Host time on a shared VM drifts by tens of percent over minutes, and
// mostly the whole machine drifts together: clock, caches and memory
// slow down for every process at once. hostbench therefore times a
// fixed reference kernel between repetitions and reports its host-time
// metrics at reference speed: a measured time t is reported as
// t * refNominal / (median reference time of the run). The kernel does
// not touch the program under test, so a change to the simulator moves
// the scaled times exactly as it moves the raw ones. One busy vCPU is
// what it misses: that slows a two-shard fleet, not a one-goroutine
// kernel.
//
// refNominal is a round figure near the kernel's median time (38-40 ms)
// on the host the bounds were set on (2-vCPU Intel Xeon VM, Go 1.24), so
// scaled times there read close to raw ones.
const refNominal = 40 * time.Millisecond

// refHeapSize is the reference heap's size: 32 KiB of keys, about an
// event engine's pending heap at the workloads' depths.
const refHeapSize = 4096

// refKernel runs the reference kernel once and returns its host time.
// It mixes the simulator's two kinds of work, a binary min-heap of
// event times popped and refilled in a loop and straight-line compute
// (SHA-256), and allocates nothing while timed.
func refKernel(h []uint64, buf []byte) time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := range h {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h[i] = x >> 20
	}
	slices.Sort(h)
	for i := 0; i < 800_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Replace the minimum with a later time and sift it down.
		v := h[0] + x>>44
		j := 0
		for {
			c := 2*j + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1] < h[c] {
				c++
			}
			if h[c] >= v {
				break
			}
			h[j] = h[c]
			j = c
		}
		h[j] = v
	}
	for i := 0; i < 80; i++ {
		sum := sha256.Sum256(buf)
		buf[i] ^= sum[0]
	}
	return time.Since(t0)
}
