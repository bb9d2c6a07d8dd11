// Package parallel provides the bounded-concurrency primitives behind
// the batch-mining engine: an ordered fan-out map over a worker pool,
// contiguous index chunking for shard-style decomposition, and a
// deterministic seed splitter so concurrent code that consumes
// randomness stays reproducible for a fixed seed.
//
// The package encodes one invariant used throughout the repository:
// parallel output must be byte-identical to serial output. MapOrdered
// writes result i to slot i regardless of completion order, Chunks
// always produces the same ranges for the same (n, parts), and
// SplitSeeds derives per-shard seeds from the shard index alone — so
// the worker count only changes wall-clock time, never results.
package parallel

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
)

// Workers normalizes a worker-count knob: values <= 0 mean "use every
// available CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// MapOrdered applies fn to every item on a pool of workers goroutines
// and returns the results in input order. fn receives the item index
// and the item; it must not touch shared mutable state. With
// workers <= 1 (or a single item) it degenerates to a plain serial
// loop with no goroutine overhead.
func MapOrdered[T, R any](workers int, items []T, fn func(i int, item T) R) []R {
	return mapOrdered(nil, workers, items, fn)
}

// MapOrderedCtx is MapOrdered with cooperative cancellation: fn is
// applied to items in index order across the pool, result i landing in
// slot i. When ctx is cancelled, dispatch stops, in-flight calls run
// to completion, every worker exits before the call returns, and the
// partial results come back together with ctx.Err() — slots whose
// items were never dispatched hold zero values. A nil error means
// every item was processed. An uncancelled run is byte-identical to
// MapOrdered at any worker count.
func MapOrderedCtx[T, R any](ctx context.Context, workers int, items []T, fn func(i int, item T) R) ([]R, error) {
	out := mapOrdered(ctx.Done(), workers, items, fn)
	return out, ctx.Err()
}

// mapOrdered is the one pool loop behind MapOrdered and MapOrderedCtx.
// Workers claim indices in order under a mutex and write result i to
// slot i. Once done is closed no further index is claimed, so when the
// in-flight calls finish the processed slots form a contiguous prefix;
// a nil done never closes.
func mapOrdered[T, R any](done <-chan struct{}, workers int, items []T, fn func(i int, item T) R) []R {
	out := make([]R, len(items))
	workers = Workers(workers)
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for i, it := range items {
			if closed(done) {
				return out
			}
			out[i] = fn(i, it)
		}
		return out
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !closed(done) {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(out) {
					return
				}
				out[i] = fn(i, items[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// closed reports whether done has been closed without blocking.
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Range is one contiguous half-open index interval [Lo, Hi).
type Range struct{ Lo, Hi int }

// Chunks splits [0, n) into at most parts contiguous ranges of
// near-equal size (the first n%parts ranges are one element longer).
// Empty ranges are never produced; for n == 0 it returns nil. The
// decomposition depends only on (n, parts), which is what makes
// shard-deterministic algorithms independent of the worker count.
func Chunks(n, parts int) []Range {
	if n <= 0 {
		return nil
	}
	if parts <= 1 || parts > n {
		if parts > n {
			parts = n
		}
		if parts <= 1 {
			return []Range{{0, n}}
		}
	}
	out := make([]Range, 0, parts)
	size, rem := n/parts, n%parts
	lo := 0
	for i := 0; i < parts; i++ {
		hi := lo + size
		if i < rem {
			hi++
		}
		out = append(out, Range{lo, hi})
		lo = hi
	}
	return out
}

// ForEachRange runs fn once per range on a pool of workers goroutines
// and blocks until all complete. fn must write only to per-index or
// per-range state.
func ForEachRange(workers int, ranges []Range, fn func(chunk int, r Range)) {
	MapOrdered(workers, ranges, func(i int, r Range) struct{} {
		fn(i, r)
		return struct{}{}
	})
}

// ForEachIndex partitions [0, n) across the pool and calls fn for
// every index. It is the chunked equivalent of `for i := range ...`
// for pure per-index work (each index computed exactly once, by one
// goroutine).
func ForEachIndex(workers, n int, fn func(i int)) {
	ForEachRange(workers, Chunks(n, Workers(workers)), func(_ int, r Range) {
		for i := r.Lo; i < r.Hi; i++ {
			fn(i)
		}
	})
}

// splitmix64 is the SplitMix64 finalizer, the standard generator for
// deriving statistically independent streams from a base seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SplitSeeds derives n decorrelated child seeds from one base seed.
// Child i depends only on (seed, i), never on how many goroutines end
// up consuming the streams — the per-worker RNG discipline that keeps
// seeded concurrent runs deterministic.
func SplitSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(splitmix64(uint64(seed) + uint64(i)*0x9e3779b97f4a7c15))
	}
	return out
}

// RNGs returns n independent rand.Rand instances seeded via
// SplitSeeds; each is owned by exactly one worker (rand.Rand itself is
// not safe for concurrent use).
func RNGs(seed int64, n int) []*rand.Rand {
	seeds := SplitSeeds(seed, n)
	out := make([]*rand.Rand, n)
	for i, s := range seeds {
		out[i] = rand.New(rand.NewSource(s))
	}
	return out
}
