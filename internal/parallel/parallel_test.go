package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			hits := make([]atomic.Int32, n)
			_ = ForContext(context.Background(), n, workers, func(_ context.Context, i int) error { hits[i].Add(1); return nil })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForSerialIsInOrder(t *testing.T) {
	var order []int
	_ = ForContext(context.Background(), 10, 1, func(_ context.Context, i int) error { order = append(order, i); return nil })
	for i, v := range order {
		if i != v {
			t.Fatalf("serial path visited %v, want ascending order", order)
		}
	}
}

// TestForContextCoversAllIndices checks the uncancelled path is identical
// to For: every index visited exactly once, nil error.
func TestForContextCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		n := 500
		hits := make([]atomic.Int32, n)
		if err := ForContext(context.Background(), n, workers, func(_ context.Context, i int) error { hits[i].Add(1); return nil }); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

// TestForContextPanicSurfacesIndex checks the panic-containment contract:
// a panic in one job is re-raised exactly once on the caller's goroutine as
// a *PanicError carrying the job index, for both the inline and pooled
// paths, and jobs already in flight still drain.
func TestForContextPanicSurfacesIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var completed atomic.Int32
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate to the caller", workers)
				}
				pe, ok := r.(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *PanicError", workers, r)
				}
				if pe.Index != 7 {
					t.Fatalf("workers=%d: panic tagged with job %d, want 7", workers, pe.Index)
				}
				if pe.Value != "boom" {
					t.Fatalf("workers=%d: panic value %v, want boom", workers, pe.Value)
				}
				if !strings.Contains(pe.Error(), "job 7") {
					t.Fatalf("workers=%d: error %q does not name the job", workers, pe.Error())
				}
				if len(pe.Stack) == 0 {
					t.Fatalf("workers=%d: no stack captured", workers)
				}
			}()
			// The call panics before returning, so there is no error to check.
			_ = ForContext(context.Background(), 64, workers, func(_ context.Context, i int) error {
				if i == 7 {
					panic("boom")
				}
				completed.Add(1)
				return nil
			})
			t.Fatalf("workers=%d: ForContext returned instead of panicking", workers)
		}()
		if workers == 1 && completed.Load() != 7 {
			t.Fatalf("serial path ran %d jobs before the panic, want 7", completed.Load())
		}
	}
}

// TestForContextPanicFailsExactlyOnce checks that with several panicking
// jobs only one panic reaches the caller.
func TestForContextPanicFailsExactlyOnce(t *testing.T) {
	panics := 0
	func() {
		defer func() {
			if r := recover(); r != nil {
				panics++
				if _, ok := r.(*PanicError); !ok {
					t.Fatalf("recovered %T, want *PanicError", r)
				}
			}
		}()
		// Panics before returning; no error to check.
		_ = ForContext(context.Background(), 256, 8, func(_ context.Context, i int) error { panic(i) })
	}()
	if panics != 1 {
		t.Fatalf("caller saw %d panics, want exactly 1", panics)
	}
}

// TestForContextCancelStopsDispatch checks that cancelling mid-run stops
// new jobs promptly, drains in-flight jobs, and returns ctx.Err().
func TestForContextCancelStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 100000
	var started atomic.Int32
	err := ForContext(ctx, n, 4, func(context.Context, int) error {
		if started.Add(1) == 8 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// In-flight jobs drain, so a few over the trigger count is fine; the
	// full space must not have been swept.
	if got := started.Load(); got >= n {
		t.Fatalf("cancellation did not stop dispatch: %d of %d jobs ran", got, n)
	}
}

// TestForContextPreCancelled checks an already-cancelled context runs
// nothing.
func TestForContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForContext(ctx, 50, workers, func(context.Context, int) error { ran.Add(1); return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d jobs ran under a pre-cancelled context", workers, ran.Load())
		}
	}
}

// TestForContextDeadline checks timeout-style cancellation surfaces as
// context.DeadlineExceeded.
func TestForContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := ForContext(ctx, 1<<30, 2, func(context.Context, int) error { time.Sleep(10 * time.Microsecond); return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestForContextReportsRootCause checks the failure policy on both the
// inline and the pooled path: a job error cancels the ctx its siblings
// see, and the caller gets that root cause rather than a lower-index
// sibling's cancellation.
func TestForContextReportsRootCause(t *testing.T) {
	root := errors.New("root cause")
	for _, workers := range []int{1, 4} {
		err := ForContext(context.Background(), 64, workers, func(ctx context.Context, i int) error {
			switch {
			case i == 3:
				return root
			case i < 3 && workers > 1:
				// Fails only because job 3 cancelled it.
				<-ctx.Done()
				return fmt.Errorf("job %d: %w", i, ctx.Err())
			}
			return nil
		})
		if err != root {
			t.Fatalf("workers=%d: got %v, want the root cause", workers, err)
		}
	}
	// The inline path stops at the failing job, so a later job never
	// runs and never reports.
	var ran atomic.Int32
	err := ForContext(context.Background(), 10, 1, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 2 {
			return root
		}
		return nil
	})
	if err != root || ran.Load() != 3 {
		t.Fatalf("inline: got %v after %d jobs, want root cause after 3", err, ran.Load())
	}
}

// TestForContextErrorPolicy pins the reporting order on the pooled path,
// with every job past a barrier before any error can cancel the rest: the
// lowest-index non-cancellation error, else the lowest-index cancellation
// error, else nil.
func TestForContextErrorPolicy(t *testing.T) {
	canc := fmt.Errorf("cell: %w", context.Canceled)
	late := fmt.Errorf("cell: %w", context.DeadlineExceeded)
	real1 := errors.New("real 1")
	real2 := errors.New("real 2")
	cases := []struct {
		name string
		errs map[int]error
		want error
	}{
		{"real error over a lower cancellation", map[int]error{1: canc, 5: real2, 3: real1}, real1},
		{"lowest cancellation", map[int]error{4: canc, 2: late}, late},
		{"no errors", nil, nil},
	}
	const n = 8
	for _, c := range cases {
		var wg sync.WaitGroup
		wg.Add(n)
		err := ForContext(context.Background(), n, n, func(_ context.Context, i int) error {
			wg.Done()
			wg.Wait()
			return c.errs[i]
		})
		if err != c.want {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}
