// Package runner is the deterministic fan-out engine behind the parallel
// experiment harness: it spreads independent jobs across a bounded worker
// pool and returns their results in job order, so a parallel run is
// byte-identical to the sequential one as long as each job owns its own
// mutable state (cluster, scheduler, RNG, marketplace).
//
// Determinism contract: Map's result slice is indexed by job, never by
// completion order, and the returned error is the lowest-indexed job
// error regardless of which job failed first on the wall clock. Callers
// must not share mutable state between jobs; everything a job touches is
// either created inside the job or read-only (the experiment harness
// audits this per entry point, and the determinism tests in
// internal/experiments enforce it under the race detector).
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallelism resolves a user-facing parallelism knob: values above zero
// pass through, anything else means "one worker per available CPU"
// (GOMAXPROCS).
func Parallelism(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(0), fn(1), …, fn(n-1) on at most workers concurrent
// goroutines and returns the results in index order. A workers value
// below 2 (after Parallelism resolution the caller usually applies)
// degenerates to a plain sequential loop on the calling goroutine — no
// goroutines, no synchronization — so a Parallelism=1 run is exactly the
// pre-parallel code path.
//
// On error, Map cancels jobs that have not started and returns the error
// of the lowest-indexed failed job along with a nil slice.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), workers, n, fn)
}

// MapCtx is Map with cooperative cancellation: once ctx is done, no new
// job starts and MapCtx returns ctx.Err() after in-flight jobs finish.
// Jobs that should abort mid-flight must observe ctx themselves (the
// simulation engine does via sim.Config.Context) — MapCtx only stops the
// fan-out between jobs. This is the one cancellation path shared by the
// parallel experiment engine and the auction service.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make([]T, n)
	if workers < 2 || n == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = v
		}
		return results, nil
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				v, err := fn(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				results[i] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
