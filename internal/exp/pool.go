package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// runPool is the campaign executor: the only code that starts campaign
// workers. Sweeps (Stream), online campaigns (RunGridContext) and
// heuristic comparisons (Compare) hand it their jobs, and it applies one
// policy to all of them:
//
//   - workers <= 0 means runtime.GOMAXPROCS(0); the count is capped at
//     len(jobs), and zero jobs start no goroutine.
//   - newWorker runs once per worker goroutine and returns that worker's
//     job function, so per-worker state (a goroutine-confined analytic
//     cache, say) lives in its closure.
//   - ctx is checked before each job: a cancelled campaign starts no new
//     work.
//   - A panicking job becomes an error naming the job and the panic
//     value, never a crashed process.
//   - The first error that is not a cancellation wins and cancels the
//     remaining jobs. Results workers already handed over are still
//     delivered before that error returns, so a journaling deliver keeps
//     every completed instance.
//   - When not every job was delivered and no job failed, the pool
//     returns the cancellation that cut it short (ctx.Err()).
//   - Results reach deliver on the caller's goroutine, in completion
//     order, and a worker starts its next job only after its last result
//     was delivered. A deliver error (a journal append failure, or a
//     consumer that stopped) cancels the pool, which drains and returns
//     that error.
//
// runPool returns only after every worker has exited.
func runPool[J, R any](ctx context.Context, workers int, jobs []J,
	newWorker func() func(context.Context, J) (R, error), deliver func(R) error) error {
	if len(jobs) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(jobs))

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	// A worker hands each result over with its ack channel and waits for
	// the ack before it claims another job, so a deliver that cancels ctx
	// (a progress callback, a consumer's break) stops the worker before
	// its next job instead of racing it. The collector acks every result,
	// delivered or drained, so these channel operations never block for
	// good.
	type handoff struct {
		r   R
		ack chan struct{}
	}
	results := make(chan handoff)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := newWorker()
			ack := make(chan struct{})
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				r, err := runJob(ctx, run, jobs[i])
				if err != nil {
					// A job aborted by the pool's own cancellation is not
					// a failure; anything else is.
					if ctx.Err() == nil || !isCancellation(err) {
						fail(err)
					}
					return
				}
				results <- handoff{r, ack}
				<-ack
			}
		}()
	}
	go func() { // results closes exactly when every worker has exited
		wg.Wait()
		close(results)
	}()

	delivered, stopped := 0, false
	for h := range results {
		if !stopped {
			if err := deliver(h.r); err != nil {
				// Keep draining: the remaining results are acked, not
				// delivered, and the workers see ctx.Done and exit.
				fail(err)
				stopped = true
			} else {
				delivered++
			}
		}
		h.ack <- struct{}{}
	}
	if firstErr != nil {
		return firstErr
	}
	if delivered < len(jobs) {
		return parent.Err()
	}
	return nil
}

// runJob runs one job, turning a panic in it (plugged-in model,
// heuristic or policy code) into an error that names the job.
func runJob[J, R any](ctx context.Context, run func(context.Context, J) (R, error), job J) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exp: %+v: panic: %v", job, p)
		}
	}()
	return run(ctx, job)
}

// isCancellation reports whether err is a context's cancellation.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
