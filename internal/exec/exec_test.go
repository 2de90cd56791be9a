package exec

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestContextDefaults(t *testing.T) {
	var nilCtx *Context
	if got := nilCtx.Parallelism(); got != 1 {
		t.Errorf("nil context parallelism = %d, want 1", got)
	}
	if nilCtx.Ctx() == nil {
		t.Error("nil context Ctx() = nil")
	}
	if err := nilCtx.Err(); err != nil {
		t.Errorf("nil context Err() = %v", err)
	}
	if got := Sequential().Parallelism(); got != 1 {
		t.Errorf("Sequential parallelism = %d, want 1", got)
	}
	if got := NewContext(nil, 0).Parallelism(); got < 1 {
		t.Errorf("default parallelism = %d, want >= 1", got)
	}
	if got := NewContext(nil, 7).WithParallelism(3).Parallelism(); got != 3 {
		t.Errorf("WithParallelism(3) = %d", got)
	}
}

// TestMapOrdered checks the package's core contract: consume sees results in
// index order at every parallelism level, even when items complete out of
// order.
func TestMapOrdered(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 8, 64} {
		ec := NewContext(context.Background(), workers)
		var consumed []int
		err := Map(ec, n, func(ctx context.Context, i int) (int, error) {
			if i%7 == 0 {
				time.Sleep(time.Millisecond) // jitter completion order
			}
			return i * i, nil
		}, func(i, v int) error {
			if v != i*i {
				t.Errorf("workers=%d: consume(%d) got %d, want %d", workers, i, v, i*i)
			}
			consumed = append(consumed, i)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(consumed) != n {
			t.Fatalf("workers=%d: consumed %d items, want %d", workers, len(consumed), n)
		}
		for i, got := range consumed {
			if got != i {
				t.Fatalf("workers=%d: consume order[%d] = %d, want %d", workers, i, got, i)
			}
		}
	}
}

func TestMapProduceError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 8} {
		ec := NewContext(context.Background(), workers)
		err := Map(ec, 50, func(ctx context.Context, i int) (int, error) {
			if i == 10 {
				return 0, boom
			}
			return i, nil
		}, func(i, v int) error {
			if i >= 10 {
				t.Errorf("workers=%d: consumed index %d past the failing item", workers, i)
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, boom)
		}
	}
}

// TestMapPrefersRealErrorOverCancellationFallout pins the error-selection
// rule: when one item fails, lower-index items that die with context.Canceled
// because Map cancelled them must not mask the genuine error.
func TestMapPrefersRealErrorOverCancellationFallout(t *testing.T) {
	boom := errors.New("boom")
	err := Map(NewContext(context.Background(), 4), 10, func(ctx context.Context, i int) (int, error) {
		if i == 2 {
			return 0, boom // fails while items 0, 1, 3 are still sleeping
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
		return i, nil
	}, nil)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v (cancellation fallout must not win)", err, boom)
	}
}

// TestMapBoundedRunahead checks the reorder-buffer bound: while the item the
// consumer is waiting for is still in flight, workers must not claim items
// beyond the 2×workers ticket window.
func TestMapBoundedRunahead(t *testing.T) {
	const workers = 4
	var (
		done0     atomic.Bool
		maxDuring atomic.Int64
	)
	err := Map(NewContext(context.Background(), workers), 100, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			time.Sleep(250 * time.Millisecond)
			done0.Store(true)
			return 0, nil
		}
		if !done0.Load() {
			for {
				cur := maxDuring.Load()
				if int64(i) <= cur || maxDuring.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
		}
		return i, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxDuring.Load(); got >= 2*workers {
		t.Errorf("claimed index %d while item 0 was in flight; window is %d", got, 2*workers)
	}
}

func TestMapConsumeError(t *testing.T) {
	stop := errors.New("stop")
	for _, workers := range []int{1, 8} {
		ec := NewContext(context.Background(), workers)
		last := -1
		err := Map(ec, 50, func(ctx context.Context, i int) (int, error) {
			return i, nil
		}, func(i, v int) error {
			if i == 5 {
				return stop
			}
			last = i
			return nil
		})
		if !errors.Is(err, stop) {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, stop)
		}
		if last != 4 {
			t.Errorf("workers=%d: last consumed = %d, want 4", workers, last)
		}
	}
}

func TestMapCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		ec := NewContext(ctx, workers)
		calls := 0
		err := Map(ec, 50, func(ctx context.Context, i int) (int, error) {
			calls++
			return i, nil
		}, nil)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if workers == 1 && calls != 0 {
			t.Errorf("sequential map ran %d items under a cancelled context", calls)
		}
	}
}

func TestMapCancelDuringRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ec := NewContext(ctx, 4)
	var started atomic.Int64
	err := Map(ec, 1000, func(ctx context.Context, i int) (int, error) {
		if started.Add(1) == 8 {
			cancel()
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		return i, nil
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Errorf("all %d items ran despite cancellation", n)
	}
}

func TestMapZeroItems(t *testing.T) {
	if err := Map(Sequential(), 0, func(ctx context.Context, i int) (int, error) {
		t.Fatal("produce called for empty input")
		return 0, nil
	}, nil); err != nil {
		t.Fatal(err)
	}
}
