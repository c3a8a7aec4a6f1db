package svc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"ccdem/internal/fleet"
)

func TestRetryPolicyBackoff(t *testing.T) {
	cases := []struct {
		name   string
		policy RetryPolicy
		retry  int
		want   time.Duration
	}{
		{"defaults first", RetryPolicy{}, 0, 200 * time.Millisecond},
		{"defaults doubling", RetryPolicy{}, 2, 800 * time.Millisecond},
		{"defaults capped", RetryPolicy{}, 10, 5 * time.Second},
		{"custom base", RetryPolicy{BaseBackoff: 10 * time.Millisecond}, 0, 10 * time.Millisecond},
		{"custom doubling", RetryPolicy{BaseBackoff: 10 * time.Millisecond}, 3, 80 * time.Millisecond},
		{"custom cap", RetryPolicy{BaseBackoff: time.Second, MaxBackoff: 3 * time.Second}, 5, 3 * time.Second},
		{"cap below base", RetryPolicy{BaseBackoff: time.Second, MaxBackoff: 100 * time.Millisecond}, 0, 100 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.policy.Backoff(tc.retry); got != tc.want {
				t.Errorf("Backoff(%d) = %v, want %v", tc.retry, got, tc.want)
			}
		})
	}
}

// realExitError obtains a genuine *exec.ExitError — the classifier must
// recognize the type the real ProcRunner surfaces, not a stand-in.
func realExitError(t *testing.T) error {
	t.Helper()
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skip("sh unavailable")
	}
	err := exec.Command("sh", "-c", "exit 3").Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("sh -c 'exit 3' returned %v, want *exec.ExitError", err)
	}
	return err
}

func TestClassifyShardError(t *testing.T) {
	exitErr := realExitError(t)
	cases := []struct {
		name string
		err  error
		want ErrorClass
	}{
		{"permanent", Permanent(errors.New("bad spec")), ClassPermanent},
		{"wrapped permanent", fmt.Errorf("svc: shard 0: %w", Permanent(errors.New("bad spec"))), ClassPermanent},
		{"deadline", context.DeadlineExceeded, ClassTimeout},
		{"worker exit", exitErr, ClassWorkerExit},
		{"wrapped worker exit", fmt.Errorf("svc: shard 2 worker: %w: diag", exitErr), ClassWorkerExit},
		{"corrupt shard", &CorruptShardError{Index: 1, Err: errors.New("bad document")}, ClassCorruptShard},
		{"oversize output", &CorruptShardError{Index: 1, Err: &OversizeOutputError{Limit: 64}}, ClassCorruptShard},
		{"unknown", errors.New("pipe broke"), ClassTransient},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ClassifyShardError(tc.err); got != tc.want {
				t.Errorf("ClassifyShardError(%v) = %s, want %s", tc.err, got, tc.want)
			}
		})
	}
}

// flakyRunner fails each shard's first failures[index] attempts with
// errs[index] (cycled), then delegates to LocalRunner.
type flakyRunner struct {
	mu       sync.Mutex
	failures map[int]int // shard index -> attempts to fail
	err      error
	attempts map[int]int
}

func (f *flakyRunner) RunShard(ctx context.Context, spec JobSpec, index int, progress func(int)) (ShardResult, error) {
	f.mu.Lock()
	f.attempts[index]++
	fail := f.attempts[index] <= f.failures[index]
	f.mu.Unlock()
	if fail {
		return ShardResult{}, f.err
	}
	return LocalRunner{}.RunShard(ctx, spec, index, progress)
}

func TestRetryRunnerRecoversTransientFailures(t *testing.T) {
	inner := &flakyRunner{
		failures: map[int]int{0: 2},
		err:      errors.New("worker lost"),
		attempts: map[int]int{},
	}
	var retried []ErrorClass
	r := RetryRunner{
		Inner:  inner,
		Policy: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
		OnRetry: func(index, attempt int, class ErrorClass, err error) {
			retried = append(retried, class)
		},
	}
	res, err := r.RunShard(context.Background(), JobSpec{Spec: testSpecDoc(t, 4)}, 0, nil)
	if err != nil {
		t.Fatalf("RunShard: %v", err)
	}
	if res.Shard == nil || inner.attempts[0] != 3 {
		t.Fatalf("shard = %v after %d attempts, want success on attempt 3", res.Shard, inner.attempts[0])
	}
	if len(retried) != 2 || retried[0] != ClassTransient {
		t.Errorf("OnRetry saw %v, want two transient retries", retried)
	}
	// The burned attempts must be visible on the job trace.
	if len(res.AttemptSpans) != 2 {
		t.Errorf("AttemptSpans = %v, want 2 retry spans", res.AttemptSpans)
	}
}

func TestRetryRunnerFailsFastOnPermanent(t *testing.T) {
	inner := &flakyRunner{
		failures: map[int]int{0: 99},
		err:      Permanent(errors.New("spec cannot shard")),
		attempts: map[int]int{},
	}
	r := RetryRunner{Inner: inner, Policy: RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond}}
	_, err := r.RunShard(context.Background(), JobSpec{Spec: testSpecDoc(t, 4)}, 0, nil)
	if err == nil || inner.attempts[0] != 1 {
		t.Fatalf("err = %v after %d attempts, want immediate failure", err, inner.attempts[0])
	}
	var failed *ShardFailedError
	if !errors.As(err, &failed) || len(failed.Attempts) != 1 || failed.Attempts[0].Class != ClassPermanent {
		t.Errorf("error = %v, want ShardFailedError with one permanent attempt", err)
	}
}

func TestRetryRunnerExhaustsAttempts(t *testing.T) {
	exitErr := realExitError(t)
	inner := &flakyRunner{
		failures: map[int]int{3: 99},
		err:      fmt.Errorf("svc: shard 3 worker: %w", exitErr),
		attempts: map[int]int{},
	}
	r := RetryRunner{Inner: inner, Policy: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}}
	_, err := r.RunShard(context.Background(), JobSpec{Spec: testSpecDoc(t, 8), Shards: 4}, 3, nil)
	if inner.attempts[3] != 3 {
		t.Fatalf("attempts = %d, want 3", inner.attempts[3])
	}
	var failed *ShardFailedError
	if !errors.As(err, &failed) {
		t.Fatalf("error = %v, want *ShardFailedError", err)
	}
	if failed.Index != 3 || len(failed.Attempts) != 3 {
		t.Fatalf("ShardFailedError = %+v, want shard 3 with 3 attempts", failed)
	}
	// The structured error narrates every attempt and stays inspectable:
	// errors.As must still reach the underlying exec.ExitError.
	for i, a := range failed.Attempts {
		if a.Attempt != i+1 || a.Class != ClassWorkerExit {
			t.Errorf("attempt %d recorded as (%d, %s), want (%d, worker_exit)", i, a.Attempt, a.Class, i+1)
		}
	}
	if got := err.Error(); !strings.Contains(got, "failed after 3 attempt(s)") || !strings.Contains(got, "attempt 2") {
		t.Errorf("error text %q does not narrate the attempts", got)
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Errorf("errors.As cannot reach the exec.ExitError through %v", err)
	}
}

func TestRetryRunnerCancelledMidBackoff(t *testing.T) {
	inner := &flakyRunner{
		failures: map[int]int{0: 99},
		err:      errors.New("worker lost"),
		attempts: map[int]int{},
	}
	// A long backoff the cancellation must cut through promptly.
	r := RetryRunner{Inner: inner, Policy: RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Minute}}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := r.RunShard(ctx, JobSpec{Spec: testSpecDoc(t, 4)}, 0, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v to cut through the backoff", elapsed)
	}
	if inner.attempts[0] != 1 {
		t.Errorf("attempts = %d, want 1 (no retry after cancellation)", inner.attempts[0])
	}
}

// blockingRunner parks until its context dies — the shape of a hung
// worker an AttemptTimeout must reclaim.
type blockingRunner struct {
	mu       sync.Mutex
	attempts int
}

func (b *blockingRunner) RunShard(ctx context.Context, spec JobSpec, index int, progress func(int)) (ShardResult, error) {
	b.mu.Lock()
	b.attempts++
	n := b.attempts
	b.mu.Unlock()
	if n == 1 {
		<-ctx.Done()
		return ShardResult{}, ctx.Err()
	}
	// A canned result, not a real simulation: this test is about the
	// timeout/retry mechanics, and a real shard run under the race
	// detector can outlast any tight AttemptTimeout.
	return ShardResult{Shard: &fleet.Shard{}}, nil
}

func TestRetryRunnerAttemptTimeout(t *testing.T) {
	inner := &blockingRunner{}
	r := RetryRunner{Inner: inner, Policy: RetryPolicy{
		MaxAttempts:    3,
		BaseBackoff:    time.Millisecond,
		AttemptTimeout: 50 * time.Millisecond,
	}}
	var classes []ErrorClass
	r.OnRetry = func(index, attempt int, class ErrorClass, err error) { classes = append(classes, class) }
	res, err := r.RunShard(context.Background(), JobSpec{Spec: testSpecDoc(t, 4)}, 0, nil)
	if err != nil {
		t.Fatalf("RunShard: %v", err)
	}
	if res.Shard == nil || inner.attempts != 2 {
		t.Fatalf("shard = %v after %d attempts, want success on attempt 2", res.Shard, inner.attempts)
	}
	if len(classes) != 1 || classes[0] != ClassTimeout {
		t.Errorf("retry classes = %v, want one timeout", classes)
	}
}

// TestManagerRetriesFlakyShard: the full stack — a shard that fails
// twice then succeeds must leave the job done, the result byte-identical
// to the unfaulted direct run, the retries visible in Progress, the
// per-class counter and log records emitted.
func TestManagerRetriesFlakyShard(t *testing.T) {
	doc := testSpecDoc(t, 30)
	inner := &flakyRunner{
		failures: map[int]int{1: 2},
		err:      errors.New("worker lost"),
		attempts: map[int]int{},
	}
	var logBuf logBuffer
	m := NewManager(Config{
		Runner: inner,
		Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
		Retry:  RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
	})
	defer m.Shutdown(context.Background())

	job, err := m.Submit(JobSpec{Spec: doc, Shards: 3, Workers: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	p := waitTerminal(t, job)
	if p.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", p.State, p.Error)
	}
	if p.Retries != 2 {
		t.Errorf("Progress.Retries = %d, want 2", p.Retries)
	}
	result, ok := job.Result()
	if !ok {
		t.Fatal("done job has no result")
	}
	var got bytes.Buffer
	if err := result.WriteJSON(&got, false); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if want := directRunJSON(t, doc); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("retried campaign differs from direct run:\n got: %s\nwant: %s", got.Bytes(), want)
	}
	var metrics bytes.Buffer
	if err := m.WritePrometheus(&metrics); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(metrics.String(), `svc_shard_retries_total{class="transient"} 2`) {
		t.Errorf("/metrics missing retry counter:\n%s", metrics.String())
	}
	if !strings.Contains(logBuf.String(), "re-dispatching") {
		t.Errorf("retries not logged:\n%s", logBuf.String())
	}
}

// TestManagerPoisonShardFailsJob: a shard that never succeeds exhausts
// its budget and fails the job — as failed, not cancelled, even though
// the sibling shards get cancelled on the way down.
func TestManagerPoisonShardFailsJob(t *testing.T) {
	inner := &flakyRunner{
		failures: map[int]int{1: 99},
		err:      errors.New("worker lost"),
		attempts: map[int]int{},
	}
	m := NewManager(Config{
		Runner: inner,
		Retry:  RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
	})
	defer m.Shutdown(context.Background())

	job, err := m.Submit(JobSpec{Spec: testSpecDoc(t, 12), Shards: 3})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	p := waitTerminal(t, job)
	if p.State != StateFailed {
		t.Fatalf("state = %s (error %q), want failed", p.State, p.Error)
	}
	if !strings.Contains(p.Error, "failed after 2 attempt(s)") {
		t.Errorf("job error %q does not carry the attempt history", p.Error)
	}
	if inner.attempts[1] != 2 {
		t.Errorf("poison shard attempted %d times, want 2", inner.attempts[1])
	}
	if got := m.metrics.count(m.metrics.failed); got != 1 {
		t.Errorf("failed counter = %d, want 1", got)
	}
}

func TestCrashPlanParse(t *testing.T) {
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"empty", "", true},
		{"kill", "shard=1,after=2,mode=kill", true},
		{"exit", "shard=0,after=5,mode=exit:7", true},
		{"truncate", "shard=2,mode=truncate:100", true},
		{"armed", "shard=1,after=2,mode=kill,file=/tmp/x", true},
		{"missing shard", "after=2,mode=kill", false},
		{"missing mode", "shard=1,after=2", false},
		{"kill without after", "shard=1,mode=kill", false},
		{"bad mode", "shard=1,after=2,mode=explode", false},
		{"bad exit code", "shard=1,after=2,mode=exit:700", false},
		{"bad pair", "shard", false},
		{"unknown key", "shard=1,after=2,mode=kill,color=red", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := parseCrashPlan(tc.in)
			if tc.ok && err != nil {
				t.Fatalf("parseCrashPlan(%q) = %v, want ok", tc.in, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("parseCrashPlan(%q) = %+v, want error", tc.in, plan)
			}
			if tc.in == "" && plan != nil {
				t.Fatalf("empty plan parsed to %+v, want nil", plan)
			}
		})
	}
}
