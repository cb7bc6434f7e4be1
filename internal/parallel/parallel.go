// Package parallel holds the tiny fan-out helper shared by the design-space
// exploration engine and the grid placement heuristic. It exists so every
// hot loop parallelizes the same way: a bounded worker pool pulling indices
// off an atomic counter, with the caller responsible for writing results
// into per-index slots so merge order stays deterministic.
//
// ForContext adds the run-control contract on top, and is the one place
// that contract is written: the first job error cancels its siblings and
// the root cause (not a sibling's cancellation) is reported; a panic inside
// any job is recovered, tagged with its job index, and re-raised exactly
// once on the caller's goroutine (a bare go panic would kill the process
// from an anonymous goroutine with no indication of which job died); and
// cancelling the context stops the dispatch of new jobs — in-flight jobs
// drain, then ctx.Err() is returned.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError wraps a panic recovered from a job so it can be re-raised on
// the caller's goroutine with the failing job identified. The original
// panic value and the panicking goroutine's stack are preserved.
type PanicError struct {
	// Index is the job index passed to the function that panicked.
	Index int
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack trace, captured at the
	// recovery point.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: job %d panicked: %v", e.Index, e.Value)
}

// ForContext runs fn(ctx, i) for every i in [0, n), spread over
// min(workers, n) goroutines fed by an atomic index counter. workers <= 0
// selects runtime.NumCPU(); workers == 1 runs the loop inline in ascending
// order with no goroutines (the serial reference path). fn must be safe for
// concurrent invocation and must confine its writes to data owned by index
// i, so results written to per-index slots stay bit-identical to the serial
// path for every worker count.
//
// Three behaviours are layered on top:
//
//   - Failure: the first job error cancels the ctx every job receives, so
//     siblings stop instead of finishing their work, and no new jobs are
//     dispatched. The returned error is the lowest-index job error that is
//     not a cancellation; failing that, the lowest-index cancellation
//     error; failing that, ctx.Err(). A sibling that fails only because
//     the failure cancelled it therefore never hides the root cause.
//   - Panic containment: a panic in any fn is recovered and tagged with
//     its job index; remaining jobs are not dispatched, in-flight jobs
//     finish, and the first recovered panic is re-raised exactly once on
//     the caller's goroutine as a *PanicError.
//   - Cancellation: when ctx is cancelled, no new jobs are dispatched;
//     after in-flight jobs drain, the error above is returned. Jobs that
//     already completed have fully written their slots — the caller sees
//     a clean prefix-of-work, never a torn write.
func ForContext(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// stop is set by the first job error or panic. The first recovered
	// panic wins; later ones (other workers may fail before they observe
	// stop) are dropped so the caller fails exactly once.
	var (
		panicOnce sync.Once
		recovered *PanicError
		stop      atomic.Bool
		errs      jobErrors
	)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() {
					recovered = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
				})
				stop.Store(true)
			}
		}()
		if err := fn(runCtx, i); err != nil {
			errs.note(i, err)
			cancel()
			stop.Store(true)
		}
	}
	// Dispatch polls stop and the caller's ctx, not runCtx: a cancelCtx's
	// Err takes a mutex, which the workers would contend on per job.
	if workers == 1 {
		for i := 0; i < n && !stop.Load() && ctx.Err() == nil; i++ {
			run(i)
		}
		if recovered != nil {
			panic(recovered)
		}
		return errs.result(ctx)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if stop.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	// wg.Wait is the happens-before edge that makes every worker's writes
	// (job slots, recovered) visible here.
	wg.Wait()
	if recovered != nil {
		panic(recovered)
	}
	return errs.result(ctx)
}

// jobErrors keeps the two errors ForContext may report: the lowest-index
// root-cause error and the lowest-index cancellation error.
type jobErrors struct {
	mu               sync.Mutex
	cause, cancelled error
	causeI, cancelI  int
}

func (e *jobErrors) note(i int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if e.cancelled == nil || i < e.cancelI {
			e.cancelled, e.cancelI = err, i
		}
		return
	}
	if e.cause == nil || i < e.causeI {
		e.cause, e.causeI = err, i
	}
}

// result picks the error to surface once every job has returned.
func (e *jobErrors) result(ctx context.Context) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.cause != nil:
		return e.cause
	case e.cancelled != nil:
		return e.cancelled
	}
	return ctx.Err()
}
