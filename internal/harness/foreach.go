package harness

import (
	"context"
	"sync"
)

// ForEach is the one bounded fan-out every frontend runs its cells on:
// the Runner, albertad's jobs and POST /v1/sweeps. It hands the indices
// 0..n-1, in order, to min(workers, n) goroutines (workers < 1 counts as
// 1), each calling do(ctx, worker, i) with its own worker number in
// [0, min(workers, n)). The first non-nil error from do cancels the ctx
// passed to every call, no further index is handed out, and ForEach
// returns that error; if the parent ctx ends first, ForEach returns its
// ctx.Err() instead. Every goroutine has exited by the time ForEach
// returns.
//
// Calls to do run concurrently and unserialized: a caller that shares
// state across indices keeps its own lock. Per-worker state needs none
// when it is indexed by the worker number.
func ForEach(ctx context.Context, n, workers int, do func(ctx context.Context, worker, i int) error) error {
	workers = max(1, min(workers, n))
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		next  int   //lint:guardedby mu
		first error //lint:guardedby mu
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n || runCtx.Err() != nil {
					return
				}
				if err := do(runCtx, w, i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return first
}
