package parallel

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrderedCtxMatchesUncancelled: with a background context the
// ctx variant must be byte-identical to MapOrdered at any worker
// count.
func TestMapOrderedCtxMatchesUncancelled(t *testing.T) {
	items := make([]int, 137)
	for i := range items {
		items[i] = i * 7
	}
	fn := func(i, v int) int { return v*v - i }
	want := MapOrdered(1, items, fn)
	for _, w := range []int{1, 2, 8, 0} {
		got, err := MapOrderedCtx(context.Background(), w, items, fn)
		if err != nil {
			t.Fatalf("workers=%d: err = %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: ctx variant diverges from MapOrdered", w)
		}
	}
}

// TestMapOrderedCtxCancelStopsDispatch: cancelling mid-run must stop
// new dispatch, finish in-flight items, and report ctx.Err() — each
// index still computed at most once.
func TestMapOrderedCtxCancelStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 1000
	var hits [n]int32
	var calls atomic.Int32
	items := make([]int, n)
	out, err := MapOrderedCtx(ctx, 4, items, func(i, _ int) int {
		atomic.AddInt32(&hits[i], 1)
		if calls.Add(1) == 10 {
			cancel()
		}
		return i + 1
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	done := int(calls.Load())
	if done >= n {
		t.Fatal("cancellation did not stop dispatch")
	}
	for i, h := range hits {
		if h > 1 {
			t.Fatalf("index %d computed %d times", i, h)
		}
	}
	// every computed slot holds its result; never a torn write.
	computed := 0
	for i, v := range out {
		if v != 0 {
			computed++
			if v != i+1 {
				t.Fatalf("slot %d = %d, want %d", i, v, i+1)
			}
		}
	}
	if computed != done {
		t.Fatalf("computed slots = %d, calls = %d", computed, done)
	}
}

// TestMapOrderedCtxKillResumePrefix is the resume contract the
// checkpointed miner builds on: a run killed mid-flight leaves a
// CONTIGUOUS prefix of completed slots (dispatch is ordered and
// in-flight items finish), and re-running the unprocessed tail
// serially splices into output identical to an uninterrupted serial
// run. If cancellation could ever leave a hole mid-slice, -resume
// would silently drop records.
func TestMapOrderedCtxKillResumePrefix(t *testing.T) {
	const n = 500
	items := make([]int, n)
	for i := range items {
		items[i] = i * 13
	}
	fn := func(i, v int) int { return v*v + i + 1 } // never 0: zero marks "not dispatched"
	want := MapOrdered(1, items, fn)

	for _, killAt := range []int32{1, 7, 63} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int32
		out, err := MapOrderedCtx(ctx, 4, items, func(i, v int) int {
			if calls.Add(1) == killAt {
				cancel()
			}
			return fn(i, v)
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("kill@%d: err = %v, want context.Canceled", killAt, err)
		}
		// the completed slots must be a contiguous, correct prefix.
		prefix := 0
		for prefix < n && out[prefix] != 0 {
			prefix++
		}
		if prefix == 0 || prefix >= n {
			t.Fatalf("kill@%d: prefix = %d of %d", killAt, prefix, n)
		}
		for i := prefix; i < n; i++ {
			if out[i] != 0 {
				t.Fatalf("kill@%d: hole before slot %d — completed slots are not a prefix", killAt, i)
			}
		}
		if !reflect.DeepEqual(out[:prefix], want[:prefix]) {
			t.Fatalf("kill@%d: killed prefix differs from serial prefix", killAt)
		}
		// resume: serially process the tail and splice.
		tail := MapOrdered(1, items[prefix:], func(i, v int) int { return fn(i+prefix, v) })
		resumed := append(append([]int{}, out[:prefix]...), tail...)
		if !reflect.DeepEqual(resumed, want) {
			t.Fatalf("kill@%d: resumed output differs from uninterrupted run", killAt)
		}
	}
}

// TestMapOrderedCtxPreCancelled: an already-dead context must not run
// fn at all (serial and pooled paths).
func TestMapOrderedCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		var calls atomic.Int32
		_, err := MapOrderedCtx(ctx, w, make([]int, 50), func(i, _ int) int {
			calls.Add(1)
			return i
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", w, err)
		}
		if c := calls.Load(); c > int32(w) {
			t.Fatalf("workers=%d: %d items dispatched after pre-cancel", w, c)
		}
	}
}

// TestMapOrderedCtxNoGoroutineLeak: before/after goroutine accounting
// across many cancelled runs.
func TestMapOrderedCtxNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int32
		_, _ = MapOrderedCtx(ctx, 8, make([]int, 200), func(i, _ int) int {
			if calls.Add(1) == 5 {
				cancel()
			}
			return i
		})
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}
