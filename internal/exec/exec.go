// Package exec is the shared evaluation runtime: a Context that carries the
// caller's context.Context together with a bound on worker parallelism, and an
// ordered fan-out primitive (Map) used by every evaluation method in
// internal/core to run independent units of work — per-mapping reformulations,
// per-partition evaluations, per-e-unit operator steps — on a bounded pool of
// goroutines.
//
// Determinism is the package's contract: Map always delivers results to the
// consumer in item-index order, regardless of the order in which workers
// complete them.  Callers that aggregate floating-point probabilities in the
// consumer therefore produce bit-identical results at any parallelism level,
// which is what lets Parallelism become a pure performance knob.
package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"
)

// Context carries the cross-cutting state of one evaluation run: the caller's
// context.Context (for cancellation and deadlines) and the maximum number of
// worker goroutines any single fan-out may use.  A nil *Context behaves like
// Sequential().
type Context struct {
	ctx         context.Context
	parallelism int
}

// NewContext builds an execution context.  A nil ctx defaults to
// context.Background(); parallelism <= 0 defaults to runtime.GOMAXPROCS(0).
func NewContext(ctx context.Context, parallelism int) *Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Context{ctx: ctx, parallelism: parallelism}
}

// Sequential returns a context with parallelism 1 and no cancellation, the
// behaviour of the pre-runtime sequential evaluators.
func Sequential() *Context { return NewContext(context.Background(), 1) }

// Ctx returns the underlying context.Context (never nil).
func (c *Context) Ctx() context.Context {
	if c == nil || c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// Parallelism returns the worker bound (at least 1).
func (c *Context) Parallelism() int {
	if c == nil || c.parallelism <= 0 {
		return 1
	}
	return c.parallelism
}

// Err returns the underlying context's error, if any.
func (c *Context) Err() error { return c.Ctx().Err() }

// Expired returns ctx's error, or context.DeadlineExceeded once ctx's
// deadline has passed.  A context learns that its deadline passed from a
// runtime timer, and the timer fires late while every processor is busy
// running evaluation loops — by up to the scheduler's preemption tick, about
// 10 ms — so a run that asked ctx.Err() alone could finish well past its
// deadline without noticing.  Reading the clock costs tens of nanoseconds, too
// much for the checks inside a run's loops, so an evaluation asks Expired
// once, when its answers are final: one that outlived its deadline then fails
// instead of answering.
func Expired(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// WithParallelism returns a context sharing c's context.Context but with the
// given worker bound (values <= 0 select GOMAXPROCS, as in NewContext).
func (c *Context) WithParallelism(parallelism int) *Context {
	return NewContext(c.Ctx(), parallelism)
}

// slot is one produced result travelling from a worker to the consumer.
type slot[T any] struct {
	i   int
	v   T
	err error
}

// Map runs produce(ctx, i) for every i in [0, n) on up to Parallelism()
// workers, and feeds each result to consume(i, v) on the calling goroutine in
// strict index order.  Consumption streams: consume(i, ...) runs as soon as
// every result up to i is available, overlapping ordered aggregation with
// production.  consume may be nil when only side effects of produce matter.
//
// The first error — from produce, from consume, or from the context being
// cancelled — stops the run; outstanding workers are cancelled and their
// results discarded.  Genuine errors are preferred over the context.Canceled
// fallout the internal cancellation induces in other workers, and within a
// class the smallest item index wins, so the error a caller sees matches the
// sequential run's.  With Parallelism() == 1, Map degenerates to a plain
// sequential loop with a cancellation check before each item.
//
// Workers claim items at most 2×workers ahead of the item the consumer is
// waiting for, so the reorder buffer holds O(workers) results even when a
// low-index item is much slower than its successors.
func Map[T any](ec *Context, n int, produce func(ctx context.Context, i int) (T, error), consume func(i int, v T) error) error {
	if n <= 0 {
		return ec.Err()
	}
	workers := ec.Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ec.Err(); err != nil {
				return err
			}
			v, err := produce(ec.Ctx(), i)
			if err != nil {
				return err
			}
			if consume != nil {
				if err := consume(i, v); err != nil {
					return err
				}
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ec.Ctx())
	defer cancel()

	out := make(chan slot[T], workers)
	// tickets bounds how far production runs ahead of in-order consumption:
	// a worker takes a ticket before claiming an item, and the ticket returns
	// to the pool when the item's result is consumed or discarded.
	window := 2 * workers
	tickets := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tickets <- struct{}{}
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		i := next
		next++
		return i
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-tickets:
				case <-ctx.Done():
					return
				}
				i := claim()
				if i >= n {
					tickets <- struct{}{} // wake the next waiting worker so it can exit too
					return
				}
				if err := ctx.Err(); err != nil {
					out <- slot[T]{i: i, err: err}
					return
				}
				v, err := produce(ctx, i)
				out <- slot[T]{i: i, v: v, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	// The consumer drains out until the workers exit, reordering results so
	// consume observes strict index order.
	var (
		firstErr       error
		firstErrIdx    = n
		firstErrCancel bool
		pending        = make(map[int]slot[T], window)
		nextConsume    = 0
	)
	fail := func(i int, err error) {
		cancellation := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		better := firstErr == nil ||
			(!cancellation && firstErrCancel) ||
			(cancellation == firstErrCancel && i < firstErrIdx)
		if better {
			firstErr, firstErrIdx, firstErrCancel = err, i, cancellation
		}
		cancel()
	}
	release := func() { tickets <- struct{}{} }
	for s := range out {
		if s.err != nil {
			release()
			fail(s.i, s.err)
			continue
		}
		if firstErr != nil {
			release()
			continue // draining after failure
		}
		pending[s.i] = s
		for {
			cur, ok := pending[nextConsume]
			if !ok {
				break
			}
			delete(pending, nextConsume)
			nextConsume++
			release()
			if consume != nil {
				if err := consume(cur.i, cur.v); err != nil {
					fail(cur.i, err)
					break
				}
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return ec.Err()
}
