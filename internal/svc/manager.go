package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"ccdem/internal/buildinfo"
	"ccdem/internal/fleet"
	"ccdem/internal/obs"
)

// ErrShuttingDown rejects submissions once shutdown has begun.
var ErrShuttingDown = errors.New("svc: shutting down")

// ErrUnknownJob reports a job ID the manager has never issued.
var ErrUnknownJob = errors.New("svc: unknown job")

// Config configures a Manager.
type Config struct {
	// Runner executes shard runs. Required (LocalRunner{} for in-process).
	Runner Runner
	// MaxJobs bounds how many campaigns run concurrently; further
	// submissions queue. 0 means 1.
	MaxJobs int
	// Logger receives the service's structured log stream (job lifecycle,
	// relayed worker records). Nil disables logging.
	Logger *slog.Logger
	// WatchHeartbeat is the interval between SSE comment frames on watch
	// streams — proxy keep-alives independent of progress traffic. 0 means
	// 15 seconds.
	WatchHeartbeat time.Duration
	// Retry bounds per-shard retry/re-dispatch (zero values mean the
	// RetryPolicy defaults: 3 attempts, 200ms..5s backoff).
	Retry RetryPolicy
	// Store, when non-nil, persists submitted specs and campaign
	// checkpoints so incomplete jobs survive a daemon crash (Recover):
	// the checkpoint is rewritten after every completed shard.
	Store *Store
}

// defaultWatchHeartbeat keeps idle SSE connections alive through
// proxies with conservative idle timeouts.
const defaultWatchHeartbeat = 15 * time.Second

// Manager owns the service's job table: it admits campaign specs,
// schedules them through a bounded semaphore, fans shard runs out to the
// Runner, merges shard accumulators in shard order, and tracks live
// progress plus obs metrics for every job.
type Manager struct {
	runner    Runner
	retry     RetryPolicy
	store     *Store
	sem       chan struct{}
	metrics   *metrics
	logger    *slog.Logger
	heartbeat time.Duration

	ctx     context.Context // parent of every job context
	stopAll context.CancelFunc
	closing chan struct{}
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool
	seq    int
	jobs   map[string]*Job
	order  []string
}

// metrics is the manager's obs registry surface: campaign and device
// counters, the running-jobs gauge, and a job-duration histogram. obs
// instruments are single-goroutine by design (per-device registries,
// merged after the run); here many job and shard goroutines update one
// registry, so every touch — including the /metrics exposition — goes
// through mu.
type metrics struct {
	mu  sync.Mutex
	reg *obs.Registry

	submitted *obs.Counter
	rejected  *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	cancelled *obs.Counter

	devicesDone   *obs.Counter
	devicesFailed *obs.Counter

	running  *obs.Gauge
	duration *obs.Histogram

	// retries counts re-dispatched shard attempts per error class,
	// exported as the labeled svc_shard_retries_total family. Kept out
	// of the registry (which has no labeled counters) but under the
	// same mu.
	retries map[ErrorClass]uint64
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		reg:           reg,
		submitted:     reg.Counter("svc.jobs.submitted"),
		rejected:      reg.Counter("svc.jobs.rejected"),
		completed:     reg.Counter("svc.jobs.completed"),
		failed:        reg.Counter("svc.jobs.failed"),
		cancelled:     reg.Counter("svc.jobs.cancelled"),
		devicesDone:   reg.Counter("svc.devices.done"),
		devicesFailed: reg.Counter("svc.devices.failed"),
		running:       reg.Gauge("svc.jobs.running"),
		duration:      reg.Histogram("svc.job.duration_s", []float64{1, 5, 15, 60, 300, 1800, 7200}),
	}
}

func (mx *metrics) noteRetry(class ErrorClass) {
	mx.mu.Lock()
	if mx.retries == nil {
		mx.retries = make(map[ErrorClass]uint64)
	}
	mx.retries[class]++
	mx.mu.Unlock()
}

func (mx *metrics) retrySnapshot() map[ErrorClass]uint64 {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	out := make(map[ErrorClass]uint64, len(mx.retries))
	for k, v := range mx.retries {
		out[k] = v
	}
	return out
}

func (mx *metrics) inc(c *obs.Counter) {
	mx.mu.Lock()
	c.Inc()
	mx.mu.Unlock()
}

func (mx *metrics) add(c *obs.Counter, n uint64) {
	mx.mu.Lock()
	c.Add(n)
	mx.mu.Unlock()
}

func (mx *metrics) count(c *obs.Counter) uint64 {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	return c.Value()
}

func (mx *metrics) setGauge(g *obs.Gauge, v float64) {
	mx.mu.Lock()
	g.Set(v)
	mx.mu.Unlock()
}

func (mx *metrics) observe(h *obs.Histogram, v float64) {
	mx.mu.Lock()
	h.Observe(v)
	mx.mu.Unlock()
}

// NewManager builds a manager ready to accept jobs.
func NewManager(cfg Config) *Manager {
	maxJobs := cfg.MaxJobs
	if maxJobs < 1 {
		maxJobs = 1
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	heartbeat := cfg.WatchHeartbeat
	if heartbeat <= 0 {
		heartbeat = defaultWatchHeartbeat
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		runner:    cfg.Runner,
		retry:     cfg.Retry,
		store:     cfg.Store,
		sem:       make(chan struct{}, maxJobs),
		metrics:   newMetrics(),
		logger:    logger,
		heartbeat: heartbeat,
		ctx:       ctx,
		stopAll:   cancel,
		closing:   make(chan struct{}),
		jobs:      make(map[string]*Job),
	}
}

// WritePrometheus writes the manager's registry in Prometheus text
// exposition format (GET /metrics), followed by the service-level
// families the registry doesn't hold: build identity and per-job series
// labeled by job ID.
func (m *Manager) WritePrometheus(w io.Writer) error {
	m.metrics.mu.Lock()
	err := m.metrics.reg.WritePrometheus(w)
	m.metrics.mu.Unlock()
	if err != nil {
		return err
	}
	pw := obs.NewPromWriter(w)
	bi := buildinfo.Get()
	pw.Family("ccdem_build_info", "gauge", "build identity of the running daemon")
	pw.Sample("ccdem_build_info", [][2]string{
		{"version", bi.Version}, {"go", bi.GoVersion}, {"revision", bi.Revision},
	}, 1)
	if retries := m.metrics.retrySnapshot(); len(retries) > 0 {
		classes := make([]string, 0, len(retries))
		for class := range retries {
			classes = append(classes, string(class))
		}
		sort.Strings(classes)
		pw.Family("svc_shard_retries_total", "counter", "shard attempts re-dispatched after a classified failure")
		for _, class := range classes {
			pw.Sample("svc_shard_retries_total", [][2]string{{"class", class}}, float64(retries[ErrorClass(class)]))
		}
	}
	jobs := m.Jobs()
	if len(jobs) > 0 {
		snaps := make([]Progress, len(jobs))
		for i, j := range jobs {
			snaps[i] = j.Progress()
		}
		pw.Family("svc_job_state", "gauge", "job lifecycle state (1 = the labeled state is current)")
		for _, p := range snaps {
			pw.Sample("svc_job_state", [][2]string{{"job", p.ID}, {"state", string(p.State)}}, 1)
		}
		pw.Family("svc_job_devices_done", "gauge", "devices completed per job")
		for _, p := range snaps {
			pw.Sample("svc_job_devices_done", [][2]string{{"job", p.ID}}, float64(p.Done))
		}
		pw.Family("svc_job_devices_failed", "gauge", "devices failed per job")
		for _, p := range snaps {
			pw.Sample("svc_job_devices_failed", [][2]string{{"job", p.ID}}, float64(p.FailedDevices))
		}
	}
	return pw.Err()
}

// Closing is closed when shutdown begins — the lever long-lived watch
// handlers select on so they cannot wedge the HTTP server's drain.
func (m *Manager) Closing() <-chan struct{} { return m.closing }

// Submit validates and admits a campaign. The job runs asynchronously;
// the returned Job is live immediately (queued until a slot frees up).
// With a Store configured, the spec document is journaled before the job
// is admitted — a journal failure rejects the submission rather than
// running a campaign that could not survive a daemon crash.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	cohort, err := spec.cohort()
	if err != nil {
		m.metrics.inc(m.metrics.rejected)
		m.logger.Warn("job rejected", "error", err.Error())
		return nil, err
	}
	specDoc, err := json.Marshal(spec)
	if err != nil {
		m.metrics.inc(m.metrics.rejected)
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.metrics.inc(m.metrics.rejected)
		m.logger.Warn("job rejected", "error", ErrShuttingDown.Error())
		return nil, ErrShuttingDown
	}
	m.seq++
	id := fmt.Sprintf("job-%04d", m.seq)
	if m.store != nil {
		if err := m.store.JournalSpec(id, specDoc); err != nil {
			m.mu.Unlock()
			m.metrics.inc(m.metrics.rejected)
			m.logger.Error("job rejected: spec journal write failed", "error", err.Error())
			return nil, err
		}
	}
	job := newJob(id, spec, cohort.Devices, time.Now())
	job.specHash = SpecHash(specDoc)
	job.ckpt = fleet.NewCheckpoint(job.specHash, buildinfo.Get().Version, spec.shards())
	jctx, cancel := context.WithCancel(m.ctx)
	job.cancel = cancel
	m.jobs[id] = job
	m.order = append(m.order, id)
	m.wg.Add(1)
	m.mu.Unlock()

	m.metrics.inc(m.metrics.submitted)
	m.logger.Info("job submitted",
		"job", id, "label", spec.Label, "devices", cohort.Devices, "shards", spec.shards())
	go m.runJob(jctx, job)
	return job, nil
}

// Recover re-admits incomplete jobs from the store — the daemon restart
// path after a crash or kill -9. Every journaled spec becomes a live job
// with its original ID; a valid checkpoint pre-fills the completed-shard
// set so only the remaining shards run (and the merged result is still
// byte-identical — the accumulator is integral, so merge order cannot
// matter). A checkpoint that fails any validation — decode/CRC, spec
// hash, code version, shard count, cohort size — is discarded with a
// structured log record and the job restarts from scratch: a suspect
// prefix is never merged. Returns the number of jobs re-admitted.
func (m *Manager) Recover() (int, error) {
	if m.store == nil {
		return 0, nil
	}
	ids, err := m.store.List()
	if err != nil {
		return 0, err
	}
	resumed := 0
	for _, id := range ids {
		specDoc, err := m.store.LoadSpec(id)
		if err != nil {
			m.logger.Error("recover: unreadable spec journal; skipping", "job", id, "error", err.Error())
			continue
		}
		spec, err := DecodeJobSpec(bytes.NewReader(specDoc))
		var cohort fleet.Cohort
		if err == nil {
			cohort, err = spec.cohort()
		}
		if err != nil {
			m.logger.Error("recover: invalid spec journal; dropping job", "job", id, "error", err.Error())
			m.store.Remove(id)
			continue
		}
		hash := SpecHash(specDoc)
		ck, err := m.store.LoadCheckpoint(id)
		if err == nil && ck != nil {
			err = validateCheckpoint(ck, hash, spec, cohort)
		}
		if err != nil {
			// Satellite invariant: refuse the resume, say why, start from
			// scratch — never merge a suspect prefix.
			m.logger.Warn("recover: checkpoint rejected; restarting job from scratch",
				"job", id, "error", err.Error())
			ck = nil
		}
		if ck == nil {
			ck = fleet.NewCheckpoint(hash, buildinfo.Get().Version, spec.shards())
		}
		if !m.admitRecovered(id, spec, cohort.Devices, hash, ck) {
			break // shutting down
		}
		resumed++
	}
	return resumed, nil
}

// validateCheckpoint pins a loaded checkpoint to the job about to resume
// from it.
func validateCheckpoint(ck *fleet.Checkpoint, specHash string, spec JobSpec, cohort fleet.Cohort) error {
	if ck.SpecHash != specHash {
		return fmt.Errorf("svc: checkpoint spec hash %.12s does not match journaled spec %.12s", ck.SpecHash, specHash)
	}
	if v := buildinfo.Get().Version; ck.CodeVersion != v {
		return fmt.Errorf("svc: checkpoint written by code version %q, running %q", ck.CodeVersion, v)
	}
	if ck.ShardCount != spec.shards() {
		return fmt.Errorf("svc: checkpoint has %d shards, spec wants %d", ck.ShardCount, spec.shards())
	}
	if ck.DoneCount() > 0 && ck.CohortDevices != cohort.Devices {
		return fmt.Errorf("svc: checkpoint cohort is %d devices, spec wants %d", ck.CohortDevices, cohort.Devices)
	}
	return nil
}

// admitRecovered registers a recovered job under its original ID and
// starts it. Returns false when shutdown has already begun.
func (m *Manager) admitRecovered(id string, spec JobSpec, devices int, hash string, ck *fleet.Checkpoint) bool {
	job := newJob(id, spec, devices, time.Now())
	job.specHash = hash
	job.ckpt = ck
	if n := ck.DoneCount(); n > 0 {
		done := make(map[int]int, n)
		for _, i := range ck.DoneShards() {
			lo, hi := fleet.ShardRange(devices, i, job.shards)
			done[i] = hi - lo
		}
		job.markResumed(done, len(ck.Failed))
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	// Keep the ID sequence ahead of every recovered ID so new submissions
	// cannot collide with a journaled job.
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > m.seq {
		m.seq = n
	}
	jctx, cancel := context.WithCancel(m.ctx)
	job.cancel = cancel
	m.jobs[id] = job
	m.order = append(m.order, id)
	m.wg.Add(1)
	m.mu.Unlock()

	m.metrics.inc(m.metrics.submitted)
	m.logger.Info("job recovered",
		"job", id, "label", spec.Label, "devices", devices,
		"shards", job.shards, "resumed_shards", ck.DoneCount())
	go m.runJob(jctx, job)
	return true
}

// Job looks a job up by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs snapshots every job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel requests cancellation of a running or queued job.
func (m *Manager) Cancel(id string) error {
	job, ok := m.Job(id)
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	if !job.requestCancel() {
		return fmt.Errorf("svc: job %s already %s", id, job.Progress().State)
	}
	return nil
}

// runJob drives one campaign: wait for a slot, fan the shard runs out,
// merge in shard order, finalize. Along the way it assembles the job's
// telemetry: per-shard dispatch spans and worker span batches (offset
// onto the job timeline), stage wall/CPU timings, and a job-scoped
// logger carried to the runner through the context.
func (m *Manager) runJob(ctx context.Context, job *Job) {
	defer m.wg.Done()
	defer job.cancel()
	jlog := m.logger.With("job", job.id)
	ctx = WithLogger(ctx, jlog)
	select {
	case m.sem <- struct{}{}:
		defer func() { <-m.sem }()
	case <-ctx.Done():
		job.finish(nil, ctx.Err(), time.Now())
		m.cleanupState(job, jlog)
		m.finalize(job, 0)
		return
	}
	job.setRunning(time.Now())
	m.metrics.setGauge(m.metrics.running, float64(len(m.sem)))
	jlog.Info("job running", "shards", job.shards, "devices", job.devices)

	// Every dispatch goes through the retry layer: transient worker
	// failures re-run in place (byte-identical — RunShard is pure in
	// (spec, index)), and only a permanent error or an exhausted attempt
	// budget dooms the campaign.
	runner := RetryRunner{
		Inner:  m.runner,
		Policy: m.retry,
		OnRetry: func(index, attempt int, class ErrorClass, err error) {
			job.noteRetry()
			m.metrics.noteRetry(class)
		},
	}
	n := job.shards
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if job.ckpt.Done(i) {
			continue // restored from the checkpoint; already merged
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			progress := func(done int) {
				if delta := job.shardProgress(i, done); delta > 0 {
					m.metrics.add(m.metrics.devicesDone, uint64(delta))
				}
			}
			dispatchStart := job.sinceStart()
			res, err := runner.RunShard(ctx, job.spec, i, progress)
			if err == nil {
				// Merge in completion order, before the shard counts as
				// finished — a checkpoint never claims a shard it hasn't
				// folded in.
				err = m.foldShard(job, res.Shard)
			}
			if err != nil {
				errs[i] = err
				if ctx.Err() == nil {
					jlog.Error("shard failed", "shard", i, "error", err.Error())
				}
				// One dead shard dooms the campaign; stop the others
				// promptly instead of burning cores on a lost run.
				job.cancel()
				return
			}
			shard := res.Shard
			job.recordShard(i, res, dispatchStart, job.sinceStart())
			progress(shardDevices(shard))
			job.shardFinished(len(shard.Failed))
			m.metrics.add(m.metrics.devicesFailed, uint64(len(shard.Failed)))
		}(i)
	}
	wg.Wait()
	job.recordStage(StageRun, job.sinceStart().Seconds())

	// Classify the fan-out's outcome. Siblings of a failed shard return
	// context.Canceled from the prompt-stop cancel above; joining those
	// with the real failure would make finish() misread a failed job as
	// cancelled, so cancellations only win when nothing actually failed.
	var failures, cancels []error
	for _, e := range errs {
		switch {
		case e == nil:
		case errors.Is(e, context.Canceled):
			cancels = append(cancels, e)
		default:
			failures = append(failures, e)
		}
	}
	err := errors.Join(failures...)
	if err == nil && len(cancels) > 0 {
		err = cancels[0]
	}
	var result *fleet.Result
	if err == nil {
		mergeStart := job.sinceStart()
		result, err = job.ckpt.Result()
		mergeEnd := job.sinceStart()
		job.recordMerge(mergeStart, mergeEnd)
	}
	job.finish(result, err, time.Now())
	m.cleanupState(job, jlog)
	m.finalize(job, time.Since(job.started).Seconds())
	p := job.Progress()
	jlog.Info("job finished",
		"state", string(p.State),
		"devices_done", p.Done, "devices_failed", p.FailedDevices,
		obs.DurationSeconds("elapsed_s", time.Since(job.started)),
		slog.Float64("cpu_s", p.CPUS))
}

// shardDevices is the shard's total accounted devices — the final
// progress count even when the worker's last throttled report lagged.
func shardDevices(s *fleet.Shard) int {
	return s.Acc.Devices() + len(s.Failed)
}

// foldShard merges one completed shard into the job's checkpoint and,
// when persistence is on, writes the checkpoint document out. A write
// failure is logged but does not fail the shard: the in-memory campaign
// is still correct, only resumability degrades.
func (m *Manager) foldShard(job *Job, shard *fleet.Shard) error {
	job.ckptMu.Lock()
	defer job.ckptMu.Unlock()
	if err := job.ckpt.AddShard(shard); err != nil {
		return err
	}
	if m.store == nil {
		return nil
	}
	if err := m.store.WriteCheckpoint(job.id, job.ckpt); err != nil {
		m.logger.Warn("checkpoint write failed", "job", job.id, "error", err.Error())
	}
	return nil
}

// cleanupState removes a terminal job's persisted spec and checkpoint —
// except when shutdown (not the user) cancelled it: a drained job's
// journal survives so the next daemon boot resumes it where the
// checkpoint left off.
func (m *Manager) cleanupState(job *Job, jlog *slog.Logger) {
	if m.store == nil {
		return
	}
	if job.Progress().State == StateCancelled && !job.userCancelled() {
		jlog.Info("job state kept for resume", "dir", m.store.Dir())
		return
	}
	if err := m.store.Remove(job.id); err != nil {
		jlog.Warn("removing job state failed", "error", err.Error())
	}
}

// finalize updates terminal-state metrics.
func (m *Manager) finalize(job *Job, durationS float64) {
	switch job.Progress().State {
	case StateDone:
		m.metrics.inc(m.metrics.completed)
	case StateCancelled:
		m.metrics.inc(m.metrics.cancelled)
	default:
		m.metrics.inc(m.metrics.failed)
	}
	if durationS > 0 {
		m.metrics.observe(m.metrics.duration, durationS)
	}
	m.metrics.setGauge(m.metrics.running, float64(len(m.sem)))
}

// BeginShutdown stops admission and cancels every live job's context.
// Idempotent; returns immediately.
func (m *Manager) BeginShutdown() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.closing)
	}
	m.mu.Unlock()
	m.stopAll()
}

// Wait blocks until every job goroutine has finished or ctx expires. On
// expiry it returns an error naming the stuck jobs — the daemon exits
// anyway, so a hung campaign cannot block shutdown past the timeout.
func (m *Manager) Wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		var stuck []string
		for _, j := range m.Jobs() {
			if p := j.Progress(); !p.State.Terminal() {
				stuck = append(stuck, j.ID())
			}
		}
		return fmt.Errorf("svc: shutdown timed out with %d jobs still running %v", len(stuck), stuck)
	}
}

// Shutdown is BeginShutdown followed by Wait.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.BeginShutdown()
	return m.Wait(ctx)
}
