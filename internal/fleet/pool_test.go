package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccdem/internal/obs"
)

func TestPoolRunsAllTasks(t *testing.T) {
	const n = 100
	ran := make([]bool, n)
	var mu sync.Mutex
	err := Pool{Workers: 7}.Run(context.Background(), n, func(_ context.Context, i int) error {
		mu.Lock()
		defer mu.Unlock()
		if ran[i] {
			return fmt.Errorf("task %d ran twice", i)
		}
		ran[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range ran {
		if !ok {
			t.Errorf("task %d never ran", i)
		}
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	err := Pool{Workers: workers}.Run(context.Background(), 50, func(_ context.Context, i int) error {
		c := cur.Add(1)
		defer cur.Add(-1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestPoolCancelsOnFirstError(t *testing.T) {
	boom := errors.New("boom")
	var executed atomic.Int64
	err := Pool{Workers: 1}.Run(context.Background(), 100, func(_ context.Context, i int) error {
		executed.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// With one worker the failure at index 0 must stop the run before any
	// further task starts.
	if n := executed.Load(); n != 1 {
		t.Errorf("executed %d tasks after failure, want 1", n)
	}
}

func TestPoolContinueOnErrorJoinsAll(t *testing.T) {
	const n = 10
	var executed atomic.Int64
	err := Pool{Workers: 4, ContinueOnError: true}.Run(context.Background(), n, func(_ context.Context, i int) error {
		executed.Add(1)
		if i%2 == 0 {
			return fmt.Errorf("task-%d-failed", i)
		}
		return nil
	})
	if executed.Load() != n {
		t.Errorf("executed %d tasks, want all %d", executed.Load(), n)
	}
	if err == nil {
		t.Fatal("nil error from failing run")
	}
	for i := 0; i < n; i += 2 {
		if want := fmt.Sprintf("task-%d-failed", i); !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q:\n%v", want, err)
		}
	}
	// Index order: the joined message lists failures lowest-index first.
	if msg := err.Error(); strings.Index(msg, "task-0-") > strings.Index(msg, "task-8-") {
		t.Errorf("joined errors out of index order:\n%v", msg)
	}
}

func TestPoolRespectsParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var executed atomic.Int64
	err := Pool{Workers: 2}.Run(ctx, 10, func(_ context.Context, i int) error {
		executed.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := executed.Load(); n != 0 {
		t.Errorf("executed %d tasks under a cancelled parent, want 0", n)
	}
}

func TestPoolProgress(t *testing.T) {
	const n = 25
	var (
		mu    sync.Mutex
		calls []int
	)
	err := Pool{Workers: 5, OnProgress: func(done, total int) {
		if total != n {
			t.Errorf("total = %d, want %d", total, n)
		}
		mu.Lock()
		calls = append(calls, done)
		mu.Unlock()
	}}.Run(context.Background(), n, func(_ context.Context, i int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != n {
		t.Fatalf("progress called %d times, want %d", len(calls), n)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress calls not monotone: %v", calls)
		}
	}
}

// TestPoolProgressSerialized verifies the OnProgress contract with
// deliberately unsynchronized callback state: calls must be serialized (no
// two in flight at once — the race detector and the inFlight check both
// catch a violation), done must increase strictly by one, and the callback
// must fire exactly total times. The callback takes no locks of its own, so
// any two concurrent invocations are a data race under -race.
func TestPoolProgressSerialized(t *testing.T) {
	const n = 200
	var (
		inFlight atomic.Int32
		calls    int   // unsynchronized on purpose
		lastDone int   // unsynchronized on purpose
		bad      error // first contract violation observed
	)
	err := Pool{Workers: 8, OnProgress: func(done, total int) {
		if inFlight.Add(1) != 1 {
			bad = errors.New("OnProgress invocations overlap")
		}
		defer inFlight.Add(-1)
		calls++
		if done != lastDone+1 {
			bad = fmt.Errorf("done went %d -> %d, want +1 steps", lastDone, done)
		}
		lastDone = done
		if total != n {
			bad = fmt.Errorf("total = %d, want %d", total, n)
		}
	}}.Run(context.Background(), n, func(_ context.Context, i int) error {
		if i%3 == 0 {
			time.Sleep(time.Microsecond) // stagger completions across workers
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad != nil {
		t.Fatal(bad)
	}
	if calls != n {
		t.Fatalf("OnProgress fired %d times, want exactly %d", calls, n)
	}
}

func TestPoolRecordsTaskSpans(t *testing.T) {
	const n = 20
	spans := obs.NewSpanLog()
	err := Pool{Workers: 4, Spans: spans}.Run(context.Background(), n,
		func(_ context.Context, i int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	got := spans.Spans()
	if len(got) != n {
		t.Fatalf("recorded %d spans, want %d", len(got), n)
	}
	names := map[string]bool{}
	for _, s := range got {
		if s.End < s.Start {
			t.Errorf("span %q ends before it starts", s.Name)
		}
		if s.Worker < 0 || s.Worker >= 4 {
			t.Errorf("span %q on worker %d, want [0,4)", s.Name, s.Worker)
		}
		names[s.Name] = true
	}
	if len(names) != n {
		t.Errorf("%d distinct span names, want %d", len(names), n)
	}
	if u := spans.Utilization(4); u <= 0 || u > 1 {
		t.Errorf("utilization %g out of (0,1]", u)
	}
}

func TestPoolZeroTasks(t *testing.T) {
	if err := (Pool{}).Run(context.Background(), 0, nil); err != nil {
		t.Fatalf("empty run: %v", err)
	}
	if err := (Pool{}).Run(context.Background(), -1, nil); err == nil {
		t.Fatal("negative task count accepted")
	}
}

func TestDeviceSeed(t *testing.T) {
	if DeviceSeed(1, 0) != DeviceSeed(1, 0) {
		t.Fatal("DeviceSeed not deterministic")
	}
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := DeviceSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("devices %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
	}
	if DeviceSeed(1, 5) == DeviceSeed(2, 5) {
		t.Error("distinct fleet seeds map device 5 to the same seed")
	}
}

// TestPoolBatchedDispatch: batching is a scheduling optimization only —
// every index still runs exactly once and per-task semantics (progress,
// worker lanes) are preserved at any batch size.
func TestPoolBatchedDispatch(t *testing.T) {
	const n = 100
	for _, batch := range []int{0, 1, 3, 16, 64, 1000} {
		ran := make([]int, n)
		var mu sync.Mutex
		var lastDone int
		workers := 4
		pool := Pool{Workers: workers, Batch: batch, OnProgress: func(done, total int) {
			if done != lastDone+1 || total != n {
				t.Errorf("batch %d: progress (%d,%d) after %d", batch, done, total, lastDone)
			}
			lastDone = done
		}}
		err := pool.RunIndexed(context.Background(), n, func(_ context.Context, i, w int) error {
			if w < 0 || w >= workers {
				return fmt.Errorf("worker lane %d out of [0,%d)", w, workers)
			}
			mu.Lock()
			ran[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for i, c := range ran {
			if c != 1 {
				t.Errorf("batch %d: task %d ran %d times", batch, i, c)
			}
		}
		if lastDone != n {
			t.Errorf("batch %d: progress ended at %d, want %d", batch, lastDone, n)
		}
	}
}

// Batched error reporting stays per task and index-ordered, and fail-fast
// cancellation still abandons the untouched remainder of a claimed batch.
func TestPoolBatchErrorSemantics(t *testing.T) {
	err := Pool{Workers: 2, Batch: 8, ContinueOnError: true}.Run(context.Background(), 40,
		func(_ context.Context, i int) error {
			if i%10 == 7 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
	if err == nil {
		t.Fatal("failures not reported")
	}
	want := "task 7 failed\ntask 17 failed\ntask 27 failed\ntask 37 failed"
	if err.Error() != want {
		t.Errorf("joined errors = %q, want %q (index order)", err, want)
	}

	var ran atomic.Int64
	err = Pool{Workers: 1, Batch: 100}.Run(context.Background(), 100,
		func(_ context.Context, i int) error {
			ran.Add(1)
			if i == 3 {
				return errors.New("fail fast")
			}
			return nil
		})
	if err == nil {
		t.Fatal("fail-fast error not reported")
	}
	if got := ran.Load(); got != 4 {
		t.Errorf("fail-fast run executed %d tasks of a claimed batch, want 4", got)
	}
}

// Lane w's first claim is batch w, so which lanes run a task does not
// depend on scheduling: exactly min(workers, batches) of them do. A lane
// that runs a task builds its recycled device, so this is what makes a
// cohort's allocation count repeat.
func TestPoolFirstBatchPerLane(t *testing.T) {
	for _, tc := range []struct{ workers, batch, n int }{{8, 8, 32}, {3, 4, 40}, {4, 1, 4}, {2, 100, 10}} {
		lanes := make([]int, tc.n)
		err := Pool{Workers: tc.workers, Batch: tc.batch}.RunIndexed(context.Background(), tc.n,
			func(_ context.Context, i, w int) error {
				lanes[i] = w
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		used := map[int]bool{}
		for i, w := range lanes {
			used[w] = true
			if b := i / tc.batch; b < tc.workers && w != b {
				t.Errorf("%+v: task %d of first batch %d ran on lane %d", tc, i, b, w)
			}
		}
		batches := (tc.n + tc.batch - 1) / tc.batch
		if len(used) != min(tc.workers, batches) {
			t.Errorf("%+v: %d lanes ran tasks, want %d", tc, len(used), min(tc.workers, batches))
		}
	}
}

// A batch far past the task count, which a job spec may carry, runs every
// task once: neither a lane's first batch nor a later claim may overflow.
func TestPoolHugeBatch(t *testing.T) {
	const n = 10
	var ran [n]atomic.Int32
	err := Pool{Workers: 4, Batch: math.MaxInt}.Run(context.Background(), n, func(_ context.Context, i int) error {
		ran[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if c := ran[i].Load(); c != 1 {
			t.Errorf("task %d ran %d times", i, c)
		}
	}
}

// Worker lanes run one task at a time even across batch boundaries — the
// invariant per-lane device reuse depends on.
func TestPoolLaneExclusive(t *testing.T) {
	const workers = 3
	busy := make([]atomic.Int32, workers)
	err := Pool{Workers: workers, Batch: 4}.RunIndexed(context.Background(), 60,
		func(_ context.Context, i, w int) error {
			if busy[w].Add(1) != 1 {
				return fmt.Errorf("lane %d shared by concurrent tasks", w)
			}
			time.Sleep(time.Millisecond)
			busy[w].Add(-1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}
