package harness

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/leakcheck"
)

// TestMain gates the package on goroutine hygiene: ForEach must join
// every worker it starts, so any goroutine surviving the run fails the
// package even with every test green.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}

// TestForEachVisitsEveryIndexOnce covers the plain path: every index runs
// exactly once and ForEach returns nil.
func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	const n = 100
	var hits [n]atomic.Int64
	if err := ForEach(context.Background(), n, 4, func(_ context.Context, _, i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("index %d ran %d times, want 1", i, got)
		}
	}
	if err := ForEach(context.Background(), 0, 4, func(context.Context, int, int) error {
		t.Error("do called on an empty range")
		return nil
	}); err != nil {
		t.Errorf("empty range: %v", err)
	}
}

// TestForEachFirstErrorCancels: the first error is returned and cancels
// the ctx of every call still in flight. Indices 0-2 block until that
// cancel, so index 3 — the failure — is the last one handed out.
func TestForEachFirstErrorCancels(t *testing.T) {
	var started atomic.Int64
	err := ForEach(context.Background(), 100, 4, func(ctx context.Context, _, i int) error {
		started.Add(1)
		if i == 3 {
			return errBoom
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	if got := started.Load(); got != 4 {
		t.Errorf("%d calls started, want 4 (nothing handed out after the failure)", got)
	}
}

// TestForEachNoIndexAfterCancel: once a failure or a parent cancel has
// been observed, no index not yet handed out ever runs.
func TestForEachNoIndexAfterCancel(t *testing.T) {
	var ran []int
	err := ForEach(context.Background(), 10, 1, func(_ context.Context, _, i int) error {
		ran = append(ran, i)
		if i == 4 {
			return errBoom
		}
		return nil
	})
	if !errors.Is(err, errBoom) || len(ran) != 5 || ran[4] != 4 {
		t.Errorf("after a failure at 4: err %v, ran %v, want errBoom and 0..4", err, ran)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran = nil
	err = ForEach(ctx, 10, 1, func(_ context.Context, _, i int) error {
		ran = append(ran, i)
		if i == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || len(ran) != 3 {
		t.Errorf("after a parent cancel at 2: err %v, ran %v, want context.Canceled and 0..2", err, ran)
	}
}

// TestForEachClampsWorkers: workers > n starts only n goroutines, whose
// worker numbers are 0..n-1 — all n run at once, and none is left over.
// Workers < 1 counts as one.
func TestForEachClampsWorkers(t *testing.T) {
	const n = 3
	var (
		mu      sync.Mutex
		workers = map[int]bool{}
		barrier sync.WaitGroup
	)
	barrier.Add(n)
	err := ForEach(context.Background(), n, 64, func(_ context.Context, w, _ int) error {
		mu.Lock()
		workers[w] = true
		mu.Unlock()
		barrier.Done()
		barrier.Wait() // proves n calls run concurrently
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := range workers {
		if w < 0 || w >= n {
			t.Errorf("worker number %d outside [0, %d)", w, n)
		}
	}
	if len(workers) != n {
		t.Errorf("workers seen %v, want %d distinct", workers, n)
	}

	var calls int
	err = ForEach(context.Background(), 5, 0, func(_ context.Context, w, _ int) error {
		calls++ // unsynchronized on purpose: -race proves one worker
		if w != 0 {
			t.Errorf("worker %d with workers = 0", w)
		}
		return nil
	})
	if err != nil || calls != 5 {
		t.Errorf("workers = 0: err %v, %d calls", err, calls)
	}
}

// TestForEachParentCancel: when the parent ctx ends, ForEach returns the
// parent's ctx.Err() — even if a call reports its own error afterwards.
func TestForEachParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := ForEach(ctx, 50, 4, func(ctx context.Context, _, i int) error {
		if i == 0 {
			cancel()
			return errBoom
		}
		<-ctx.Done()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}

	if err := ForEach(ctx, 5, 2, func(context.Context, int, int) error {
		t.Error("do called under an already canceled parent")
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled parent: err = %v, want context.Canceled", err)
	}
}
