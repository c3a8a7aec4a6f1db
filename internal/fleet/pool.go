// Package fleet scales the single-device reproduction to populations: a
// bounded worker-pool execution engine for independent device runs
// (Pool), deterministic per-device seeding sharded from one fleet seed,
// and a cohort layer (Cohort) that expands declarative user profiles —
// app-usage mixes over the 30-app catalog, session lengths, touch
// intensity — into N simulated devices and aggregates them into
// fleet-wide statistics (power-saving percentiles, display-quality CDF,
// battery-hours distribution).
//
// Every device run is seeded from (fleet seed, device index) only, so a
// fleet's results are bit-identical regardless of worker count or
// scheduling order — the same property experiments.forEachApp relies on
// for the paper campaign, extended to millions of simulated users.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ccdem/internal/obs"
)

// PanicError is a worker panic recovered by the pool and converted into a
// task error, carrying the goroutine stack at the panic site. One broken
// device configuration produces a diagnosable error instead of crashing
// the whole campaign.
type PanicError struct {
	Task  int
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("fleet: task %d panicked: %v\n%s", e.Task, e.Value, e.Stack)
}

// TimeoutError reports a task exceeding the pool's TaskTimeout. It
// matches errors.Is(err, context.DeadlineExceeded).
type TimeoutError struct {
	Task    int
	Timeout time.Duration
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("fleet: task %d exceeded timeout %v", e.Task, e.Timeout)
}

// Is reports context.DeadlineExceeded equivalence.
func (e *TimeoutError) Is(target error) bool { return target == context.DeadlineExceeded }

// Pool is a bounded worker-pool execution engine for independent
// simulated-device runs. The zero value is ready to use: all cores,
// fail-fast cancellation, no progress reporting.
type Pool struct {
	// Workers bounds the number of tasks executing concurrently.
	// 0 (or negative) means GOMAXPROCS.
	Workers int
	// ContinueOnError keeps dispatching the remaining tasks after a
	// failure, so every failure is observed and reported. The default
	// (false) cancels all pending tasks on the first error — the right
	// behaviour for long fleet runs where one broken device
	// configuration should stop the campaign promptly.
	ContinueOnError bool
	// OnProgress, when non-nil, is called after each task finishes with
	// the number of completed tasks and the total. Calls are serialized
	// and done is strictly increasing, but they originate from worker
	// goroutines: keep the callback cheap.
	OnProgress func(done, total int)
	// Spans, when non-nil, records a wall-clock span per task (named
	// "task <i>", one lane per worker) for pool-utilization analysis and
	// the scheduler track of a Perfetto trace. Wall-clock spans reflect
	// host scheduling and are NOT deterministic across runs.
	Spans *obs.SpanLog
	// TaskTimeout bounds each task's wall-clock execution; 0 disables.
	// A task exceeding it is reported as a *TimeoutError (matching
	// errors.Is(err, context.DeadlineExceeded)) and ABANDONED: its
	// goroutine keeps running with a cancelled context, so tasks must
	// publish results with synchronization the caller can seal (Cohort
	// does). The worker lane is freed for the next task either way — a
	// hung simulation no longer wedges the campaign.
	TaskTimeout time.Duration
	// Batch sets how many consecutive task indices a worker claims per
	// dispatch. Larger batches amortize the shared counter and progress
	// lock over contiguous index ranges — a million-device cohort at
	// Batch 64 makes ~16k claims instead of a million — while panic and
	// timeout recovery, error reporting, spans and progress stay per
	// task. 0 or 1 means one task per claim. Results are index-addressed
	// either way, so batching never changes outputs.
	Batch int
}

// EffectiveWorkers reports the number of worker goroutines Run and
// RunIndexed use for an n-task run: Workers (GOMAXPROCS when unset)
// capped at n. Callers sizing per-worker state (one recycled device or
// accumulator shard per lane) must size it with this.
func (p Pool) EffectiveWorkers(n int) int {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n > 0 && workers > n {
		workers = n
	}
	return workers
}

// runTask executes one task with panic recovery and the optional timeout.
func (p Pool) runTask(ctx context.Context, i, worker int, task func(ctx context.Context, i, worker int) error) error {
	run := func(ctx context.Context) (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = &PanicError{Task: i, Value: v, Stack: debug.Stack()}
			}
		}()
		return task(ctx, i, worker)
	}
	if p.TaskTimeout <= 0 {
		return run(ctx)
	}
	tctx, cancel := context.WithTimeout(ctx, p.TaskTimeout)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(tctx) }()
	select {
	case err := <-done:
		return err
	case <-tctx.Done():
		// Prefer a completion that raced with the deadline.
		select {
		case err := <-done:
			return err
		default:
		}
		if ctx.Err() != nil {
			return ctx.Err() // cancelled run, not a slow task
		}
		return &TimeoutError{Task: i, Timeout: p.TaskTimeout}
	}
}

// Run executes task(ctx, i) for every i in [0, n), at most Workers at a
// time. Tasks must be independent and index-addressed: a task that needs
// to publish a result writes it to slot i of a caller-owned slice, which
// keeps result order deterministic regardless of scheduling.
//
// The context passed to tasks is cancelled on the first task error
// (unless ContinueOnError) and when parent is cancelled; tasks not yet
// started are then skipped. Run returns all task errors joined in index
// order (errors.Join), or the parent's cancellation cause when no task
// failed but the run was cut short.
func (p Pool) Run(parent context.Context, n int, task func(ctx context.Context, i int) error) error {
	return p.RunIndexed(parent, n, func(ctx context.Context, i, _ int) error {
		return task(ctx, i)
	})
}

// taskError is one failed task, recorded sparsely: a million-task run
// tracks only its failures, not an error slot per task.
type taskError struct {
	task int
	err  error
}

// RunIndexed is Run with the executing worker's lane index in
// [0, EffectiveWorkers(n)) passed to each task — the hook cohorts use for
// worker-local state such as one recycled device or one accumulator
// shard per lane. A lane runs one task at a time, so per-lane state needs
// no locking (but see TaskTimeout: an abandoned task's goroutine still
// holds its lane's state).
func (p Pool) RunIndexed(parent context.Context, n int, task func(ctx context.Context, i, worker int) error) error {
	if n < 0 {
		return fmt.Errorf("fleet: negative task count %d", n)
	}
	if parent == nil {
		parent = context.Background()
	}
	if n == 0 {
		return parent.Err()
	}
	workers := p.EffectiveWorkers(n)
	// A batch past n claims nothing more; capping it keeps the lane
	// offsets below from overflowing.
	batch := min(max(p.Batch, 1), n)

	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	// Worker w's first batch is [w·batch, (w+1)·batch); the shared counter
	// hands out the batches after those. Which lanes run a task then does
	// not depend on scheduling: exactly min(workers, batches) lanes do.
	var (
		next atomic.Int64 // next task index to claim (batch at a time)
		mu   sync.Mutex   // guards errs/done and serializes OnProgress
		done int
		errs []taskError
		wg   sync.WaitGroup
	)
	next.Store(int64(workers) * int64(batch))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for hi := (w + 1) * batch; ; hi = int(next.Add(int64(batch))) {
				lo := hi - batch
				if lo >= n || ctx.Err() != nil {
					return
				}
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					if ctx.Err() != nil {
						return
					}
					var endSpan func()
					if p.Spans != nil {
						endSpan = p.Spans.Begin(fmt.Sprintf("task %d", i), w)
					}
					err := p.runTask(ctx, i, w, task)
					if endSpan != nil {
						endSpan()
					}
					mu.Lock()
					if err != nil {
						errs = append(errs, taskError{i, err})
					}
					done++
					if p.OnProgress != nil {
						p.OnProgress(done, n)
					}
					mu.Unlock()
					if err != nil && !p.ContinueOnError {
						cancel()
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if len(errs) > 0 {
		// Join in index order, matching the dense bookkeeping this
		// replaces: reports are deterministic however tasks finished.
		sort.Slice(errs, func(a, b int) bool { return errs[a].task < errs[b].task })
		joined := make([]error, len(errs))
		for i, te := range errs {
			joined[i] = te.err
		}
		return errors.Join(joined...)
	}
	return parent.Err()
}
