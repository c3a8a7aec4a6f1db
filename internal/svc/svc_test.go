package svc

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"ccdem/internal/fleet"
	"ccdem/internal/sim"
)

// testSpecDoc serializes a small deterministic cohort as a spec document.
func testSpecDoc(t *testing.T, devices int) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := fleet.WriteSpec(&buf, fleet.Cohort{
		Devices:      devices,
		Seed:         7,
		Session:      2 * sim.Second,
		MeterSamples: 256,
	})
	if err != nil {
		t.Fatalf("WriteSpec: %v", err)
	}
	return buf.Bytes()
}

// directRunJSON runs the spec single-process in streaming mode and
// returns the aggregate JSON — the byte-identity reference.
func directRunJSON(t *testing.T, doc []byte) []byte {
	t.Helper()
	cohort, err := fleet.ReadSpec(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("ReadSpec: %v", err)
	}
	cohort.Stream = true
	result, err := cohort.Run(context.Background(), fleet.Pool{Workers: 2})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	var buf bytes.Buffer
	if err := result.WriteJSON(&buf, false); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, job *Job) Progress {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		p := job.Progress()
		if p.State.Terminal() {
			return p
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", job.ID(), p.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// logBuffer collects a Manager's log records for a test to read while a
// job's goroutine may still be logging into it.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestManagerShardedJobMatchesDirectRun(t *testing.T) {
	doc := testSpecDoc(t, 30)
	m := NewManager(Config{Runner: LocalRunner{}, MaxJobs: 2})
	defer m.Shutdown(context.Background())

	job, err := m.Submit(JobSpec{Spec: doc, Shards: 3, Workers: 2, Label: "match"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	p := waitTerminal(t, job)
	if p.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", p.State, p.Error)
	}
	if p.Done != 30 || p.Devices != 30 || p.ShardsDone != 3 || p.FailedDevices != 0 {
		t.Fatalf("terminal progress = %+v, want 30/30 devices over 3 shards", p)
	}
	if p.Label != "match" {
		t.Fatalf("label = %q, want %q", p.Label, "match")
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
		t.Errorf("sharded service result differs from direct run:\n got: %s\nwant: %s", got.Bytes(), want)
	}
}

func TestManagerRejectsInvalidSpec(t *testing.T) {
	m := NewManager(Config{Runner: LocalRunner{}})
	defer m.Shutdown(context.Background())

	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"missing spec", JobSpec{}, "missing cohort spec"},
		{"negative shards", JobSpec{Spec: testSpecDoc(t, 4), Shards: -1}, "negative shard count"},
		{"too many shards", JobSpec{Spec: testSpecDoc(t, 4), Shards: 9}, "empty shards"},
		{"negative workers", JobSpec{Spec: testSpecDoc(t, 4), Workers: -2}, "negative worker count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := m.Submit(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Submit error = %v, want containing %q", err, tc.want)
			}
		})
	}
	if got := m.metrics.count(m.metrics.rejected); got != uint64(len(cases)) {
		t.Errorf("rejected counter = %d, want %d", got, len(cases))
	}
}

// gateRunner blocks every shard run until released (or its ctx dies,
// when obeyCtx is set). It records peak concurrency.
type gateRunner struct {
	release chan struct{}
	obeyCtx bool

	mu      sync.Mutex
	running int
	peak    int
	started chan struct{} // receives one token per shard run started
}

func newGateRunner(obeyCtx bool) *gateRunner {
	return &gateRunner{
		release: make(chan struct{}),
		obeyCtx: obeyCtx,
		started: make(chan struct{}, 64),
	}
}

func (g *gateRunner) RunShard(ctx context.Context, spec JobSpec, index int, progress func(int)) (ShardResult, error) {
	g.mu.Lock()
	g.running++
	if g.running > g.peak {
		g.peak = g.running
	}
	g.mu.Unlock()
	g.started <- struct{}{}
	defer func() {
		g.mu.Lock()
		g.running--
		g.mu.Unlock()
	}()
	if g.obeyCtx {
		select {
		case <-g.release:
		case <-ctx.Done():
			return ShardResult{}, ctx.Err()
		}
	} else {
		<-g.release
	}
	return LocalRunner{}.RunShard(ctx, spec, index, progress)
}

// TestProcRunnerDiagBounded: a worker spewing diagnostics must not grow
// the daemon's retained buffer past the per-worker byte cap, and the
// truncation must be logged — not silent.
func TestProcRunnerDiagBounded(t *testing.T) {
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skip("sh unavailable")
	}
	var logBuf bytes.Buffer
	ctx := WithLogger(context.Background(), slog.New(slog.NewJSONHandler(&logBuf, nil)))
	// ~160KB of non-JSON stderr, then a failing exit so RunShard reports
	// the retained diagnostics in its error.
	r := ProcRunner{Exe: "sh", Args: []string{"-c",
		`i=0; while [ $i -lt 4000 ]; do echo "diagnostic line $i padding padding padding" >&2; i=$((i+1)); done; exit 3`}}
	_, err := r.RunShard(ctx, JobSpec{Spec: testSpecDoc(t, 4)}, 0, nil)
	if err == nil {
		t.Fatal("worker exiting 3 reported no error")
	}
	if got := len(err.Error()); got > maxWorkerDiagBytes+256 {
		t.Errorf("error carries %d bytes of diagnostics, cap is %d", got, maxWorkerDiagBytes)
	}
	if !strings.Contains(logBuf.String(), "diagnostics truncated") {
		t.Errorf("truncation not logged: %s", logBuf.String())
	}
}

func TestManagerCancel(t *testing.T) {
	runner := newGateRunner(true)
	m := NewManager(Config{Runner: runner})
	defer m.Shutdown(context.Background())
	defer close(runner.release)

	job, err := m.Submit(JobSpec{Spec: testSpecDoc(t, 6)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-runner.started
	if err := m.Cancel(job.ID()); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	p := waitTerminal(t, job)
	if p.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", p.State)
	}
	if _, ok := job.Result(); ok {
		t.Error("cancelled job has a result")
	}
	if err := m.Cancel(job.ID()); err == nil || !strings.Contains(err.Error(), "already cancelled") {
		t.Errorf("second Cancel = %v, want already-cancelled error", err)
	}
	if err := m.Cancel("job-9999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Cancel unknown = %v, want ErrUnknownJob", err)
	}
}

func TestManagerBoundsConcurrentJobs(t *testing.T) {
	runner := newGateRunner(true)
	m := NewManager(Config{Runner: runner, MaxJobs: 1})
	defer m.Shutdown(context.Background())

	var jobs []*Job
	for i := 0; i < 3; i++ {
		job, err := m.Submit(JobSpec{Spec: testSpecDoc(t, 4)})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs = append(jobs, job)
	}
	// Exactly one job may hold the slot (whichever goroutine won the
	// semaphore); the rest sit queued even after a generous wait.
	<-runner.started
	time.Sleep(50 * time.Millisecond)
	running := 0
	for _, job := range jobs {
		if job.Progress().State == StateRunning {
			running++
		}
	}
	if running != 1 {
		t.Fatalf("%d jobs running concurrently, want 1 behind MaxJobs=1", running)
	}
	close(runner.release)
	for _, job := range jobs {
		if p := waitTerminal(t, job); p.State != StateDone {
			t.Fatalf("job %s state = %s (error %q), want done", job.ID(), p.State, p.Error)
		}
	}
	if runner.peak > 1 {
		t.Errorf("peak concurrent shard runs = %d, want 1", runner.peak)
	}
	// Drain the job goroutines (finalize included) before reading the
	// terminal-state counter; Shutdown is idempotent with the deferred one.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := m.metrics.count(m.metrics.completed); got != 3 {
		t.Errorf("completed counter = %d, want 3", got)
	}
}

func TestShutdownTimesOutOnHungJob(t *testing.T) {
	runner := newGateRunner(false) // ignores ctx: a truly hung worker
	m := NewManager(Config{Runner: runner})
	defer close(runner.release)

	job, err := m.Submit(JobSpec{Spec: testSpecDoc(t, 4)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-runner.started

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = m.Shutdown(ctx)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Shutdown with a hung job returned nil, want timeout error")
	}
	if !strings.Contains(err.Error(), job.ID()) {
		t.Errorf("Shutdown error %q does not name the stuck job %s", err, job.ID())
	}
	if elapsed > 5*time.Second {
		t.Errorf("Shutdown blocked %v, want prompt return after the 200ms deadline", elapsed)
	}
	if _, err := m.Submit(JobSpec{Spec: testSpecDoc(t, 4)}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("Submit after shutdown = %v, want ErrShuttingDown", err)
	}
}

func TestShutdownDrainsCleanly(t *testing.T) {
	m := NewManager(Config{Runner: LocalRunner{}, MaxJobs: 2})
	var jobs []*Job
	for i := 0; i < 3; i++ {
		job, err := m.Submit(JobSpec{Spec: testSpecDoc(t, 8), Shards: 2})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs = append(jobs, job)
	}
	// Shutdown cancels in-flight work; every job must still reach a
	// terminal state and Wait must return without a deadline.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, job := range jobs {
		if p := job.Progress(); !p.State.Terminal() {
			t.Errorf("job %s left in state %s after Shutdown", job.ID(), p.State)
		}
	}
}

func TestJobWatchStreamsToTerminal(t *testing.T) {
	m := NewManager(Config{Runner: LocalRunner{}})
	defer m.Shutdown(context.Background())

	job, err := m.Submit(JobSpec{Spec: testSpecDoc(t, 10), Shards: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	updates, unsubscribe := job.Watch()
	defer unsubscribe()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case p := <-updates:
			if p.ID != job.ID() {
				t.Fatalf("snapshot for %q, want %q", p.ID, job.ID())
			}
			if p.State.Terminal() {
				if p.State != StateDone || p.Done != 10 {
					t.Fatalf("terminal snapshot = %+v, want done with 10 devices", p)
				}
				return
			}
		case <-deadline:
			t.Fatal("watch never delivered a terminal snapshot")
		}
	}
}
