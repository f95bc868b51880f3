package exp

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunPoolContract pins the campaign pool's policy: worker count,
// cancellation, error precedence, delivery of results handed over
// before a failure, panics as errors, and shutdown without leaked
// goroutines after a consumer stops.
func TestRunPoolContract(t *testing.T) {
	errBoom := errors.New("boom")
	errStop := errors.New("consumer stopped")
	cases := []struct {
		name          string
		jobs, workers int
		// cancel cancels the pool's context before it starts.
		cancel bool
		// job runs job i; nil returns i.
		job func(ctx context.Context, i int) (int, error)
		// cancelAfter, when positive, cancels the context once that many
		// results were delivered; stopAfter makes deliver fail instead.
		cancelAfter, stopAfter int
		wantErr                error
		wantMsg                string
		// wantDelivered is the exact delivery sequence (nil: unchecked);
		// wantCount the number delivered (-1: unchecked).
		wantDelivered []int
		wantCount     int
		// wantStarted is the number of workers started (-1: unchecked).
		wantStarted int
	}{
		{
			name: "all delivered", jobs: 20, workers: 3,
			wantCount: 20, wantStarted: 3,
		},
		{
			name: "zero jobs start no worker", jobs: 0, workers: 4,
			wantCount: 0, wantStarted: 0,
		},
		{
			name: "workers capped at jobs", jobs: 3, workers: 10,
			wantCount: 3, wantStarted: 3,
		},
		{
			name: "default workers is GOMAXPROCS", jobs: 1000, workers: 0,
			wantCount: 1000, wantStarted: min(runtime.GOMAXPROCS(0), 1000),
		},
		{
			name: "consumer stop cancels and drains", jobs: 200, workers: 4,
			stopAfter: 3,
			wantErr:   errStop, wantCount: 3, wantStarted: -1,
		},
		{
			name: "results handed over before a failure are delivered", jobs: 10, workers: 1,
			job: func(_ context.Context, i int) (int, error) {
				if i == 3 {
					return 0, errBoom
				}
				return i, nil
			},
			wantErr: errBoom, wantDelivered: []int{0, 1, 2}, wantCount: 3, wantStarted: 1,
		},
		{
			// Job 0 blocks until the pool cancels, then reports the
			// cancellation; job 1's failure must win over it.
			name: "first non-cancellation error wins", jobs: 2, workers: 2,
			job: func(ctx context.Context, i int) (int, error) {
				if i == 1 {
					return 0, errBoom
				}
				<-ctx.Done()
				return 0, ctx.Err()
			},
			wantErr: errBoom, wantCount: 0, wantStarted: 2,
		},
		{
			name: "cancelled before start", jobs: 10, workers: 2, cancel: true,
			wantErr: context.Canceled, wantCount: 0, wantStarted: -1,
		},
		{
			name: "cancelled mid-run", jobs: 200, workers: 2, cancelAfter: 5,
			job: func(ctx context.Context, i int) (int, error) {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
				return i, nil
			},
			wantErr: context.Canceled, wantCount: -1, wantStarted: 2,
		},
		{
			name: "panic becomes an error naming the job", jobs: 4, workers: 2,
			job: func(_ context.Context, i int) (int, error) {
				if i == 2 {
					panic("kaboom")
				}
				return i, nil
			},
			wantMsg: "exp: 2: panic: kaboom", wantCount: -1, wantStarted: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				cancel()
			}
			jobs := make([]int, tc.jobs)
			for i := range jobs {
				jobs[i] = i
			}
			job := tc.job
			if job == nil {
				job = func(_ context.Context, i int) (int, error) { return i, nil }
			}
			var started atomic.Int64
			newWorker := func() func(context.Context, int) (int, error) {
				started.Add(1)
				return job
			}
			var delivered []int
			err := runPool(ctx, tc.workers, jobs, newWorker, func(r int) error {
				if tc.stopAfter > 0 && len(delivered) == tc.stopAfter {
					return errStop
				}
				delivered = append(delivered, r)
				if len(delivered) == tc.cancelAfter {
					cancel()
				}
				return nil
			})

			switch {
			case tc.wantMsg != "":
				if err == nil || !strings.Contains(err.Error(), tc.wantMsg) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantMsg)
				}
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
			case err != nil:
				t.Fatalf("err = %v, want nil", err)
			}
			if tc.wantDelivered != nil && !slices.Equal(delivered, tc.wantDelivered) {
				t.Fatalf("delivered %v, want %v", delivered, tc.wantDelivered)
			}
			if tc.wantCount >= 0 && len(delivered) != tc.wantCount {
				t.Fatalf("delivered %d results, want %d", len(delivered), tc.wantCount)
			}
			if tc.wantErr == nil && tc.wantMsg == "" {
				slices.Sort(delivered)
				if !slices.Equal(delivered, jobs) {
					t.Fatalf("delivered %v, want every job once", delivered)
				}
			}
			if got := int(started.Load()); tc.wantStarted >= 0 && got != tc.wantStarted {
				t.Fatalf("started %d workers, want %d", got, tc.wantStarted)
			}
			waitForPoolExit(t, base)
		})
	}
}

// waitForPoolExit polls until the goroutine count is back at the
// baseline: the pool's closer goroutine may still be finishing its last
// statement when runPool returns.
func waitForPoolExit(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
