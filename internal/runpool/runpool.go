// Package runpool fans independent simulation units across a bounded
// worker pool with deterministic result ordering.
//
// The experiment grids this repo runs — knob sweeps, seed repeats, app
// counts, BE variants — are embarrassingly parallel: every unit builds
// its own sim.Engine, RNG, and core.Fleet from an index-derived seed
// and never touches shared state. Map exploits that: it runs units on
// up to `workers` goroutines but returns results strictly in index
// order, so the caller's output (and therefore the CLI's stdout) is
// byte-identical no matter how many workers ran.
//
// Units MUST NOT share mutable state: each one owns its engine,
// observers, recorders, and histograms, and merging (metrics.Histogram,
// trace.Recorder, metrics.Welford folds) happens on the caller's
// goroutine after Map returns. Sharing any of those across workers is
// a data race; `go test -race` with TestParallelDeterminism enforces
// this.
package runpool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default pool width: GOMAXPROCS, i.e. the
// CPUs the runtime will actually schedule on.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Resolve normalizes a workers setting: values <= 0 mean
// DefaultWorkers.
func Resolve(workers int) int {
	if workers <= 0 {
		return DefaultWorkers()
	}
	return workers
}

// Map runs fn(0..n-1) and returns the n results in index order.
//
// With workers <= 1 (or n <= 1) every unit runs sequentially on the
// calling goroutine and Map stops at the first error — bit-for-bit the
// pre-parallel behaviour, which is why `-workers 1` reproduces the old
// sequential runs exactly.
//
// With more workers, units are handed out in index order to
// min(workers, n) goroutines. On error the failing unit's error is
// recorded, no further units are handed out, and the error returned is
// the one with the lowest index — the same error a sequential run
// would have surfaced (units already in flight may still run; their
// results are discarded).
//
// A panicking unit does not crash the process: the panic is recovered
// (in the worker goroutine, where it would otherwise be fatal and name
// no unit), wrapped with the unit index and stack, and returned as that
// unit's error under the same lowest-index-wins rule.
func Map[T any](workers, n int, fn func(int) (T, error)) ([]T, error) {
	return MapCtx(nil, workers, n, fn)
}

// MapCtx is Map with cooperative cancellation: once ctx is done, no
// further units are dispatched (units already in flight finish or
// abort on their own ctx checks) and, absent an earlier unit error,
// ctx.Err() is returned. A nil ctx means no cancellation — identical
// to Map.
//
// Like Map's error path, cancellation is fail-fast at the dispatch
// point: the pool never drains the remaining unit list just to skip
// each one.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	done := func() bool { return ctx != nil && ctx.Err() != nil }
	out := make([]T, n)
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if done() {
				return nil, ctx.Err()
			}
			v, err := guard(i, fn)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errIdx = n
		errVal error
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || failed.Load() || done() {
					return
				}
				v, err := guard(i, fn)
				if err != nil {
					failed.Store(true)
					mu.Lock()
					if i < errIdx {
						errIdx, errVal = i, err
					}
					mu.Unlock()
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if errVal != nil {
		return nil, errVal
	}
	if done() {
		return nil, ctx.Err()
	}
	return out, nil
}

// guard runs one unit, converting a panic into an error that names the
// unit index (experiment units derive their seeds from it, so the
// index is what a user needs to reproduce the failure).
func guard[T any](i int, fn func(int) (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("runpool: unit %d panicked: %v\n%s", i, p, debug.Stack())
		}
	}()
	return fn(i)
}
