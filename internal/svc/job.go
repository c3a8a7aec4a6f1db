package svc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"ccdem/internal/fleet"
	"ccdem/internal/obs"
)

// State is a job's lifecycle position. Transitions only move forward:
// queued → running → one of the three terminal states.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Stage names for the per-job wall-clock timings in Progress.StageS.
const (
	StageRun   = "run"   // start of the shard fan-out to the last shard's return
	StageMerge = "merge" // central shard merge
)

// Progress is one job's live status snapshot — what GET /api/jobs/{id}
// returns and what the watch stream fans out on every update.
type Progress struct {
	ID    string `json:"id"`
	Label string `json:"label,omitempty"`
	State State  `json:"state"`
	// Devices is the campaign's cohort size; Done counts devices whose
	// simulation finished (survivors and failures alike); FailedDevices
	// counts failures, reported as their shards complete.
	Devices       int `json:"devices"`
	Done          int `json:"done"`
	FailedDevices int `json:"failed_devices"`
	// Shards/ShardsDone track whole worker runs.
	Shards     int `json:"shards"`
	ShardsDone int `json:"shards_done"`
	// ElapsedS is wall-clock seconds since the job started running (total
	// runtime once terminal). ETAS estimates remaining seconds from the
	// observed completion rate; 0 until the first device lands.
	ElapsedS float64 `json:"elapsed_s"`
	ETAS     float64 `json:"eta_s,omitempty"`
	// StageS holds completed stage wall timings (StageRun, StageMerge) in
	// seconds; CPUS is total worker-subprocess CPU seconds (0 when the
	// runner can't observe CPU, e.g. in-process runs).
	StageS map[string]float64 `json:"stage_s,omitempty"`
	CPUS   float64            `json:"cpu_s,omitempty"`
	// Retries counts shard attempts that failed and were re-dispatched;
	// ResumedShards counts shards restored from a checkpoint instead of
	// re-run after a daemon restart.
	Retries       int    `json:"retries,omitempty"`
	ResumedShards int    `json:"resumed_shards,omitempty"`
	Error         string `json:"error,omitempty"`
}

// Job is one submitted campaign tracked by the Manager. All state is
// guarded by mu; snapshots (Progress) are safe from any goroutine.
type Job struct {
	id      string
	spec    JobSpec
	devices int
	shards  int
	created time.Time

	cancel context.CancelFunc // cancels the job's run context

	// Fault-tolerance state: specHash pins the job's identity for
	// checkpointing, ckpt accumulates completed shards in completion
	// order (guarded by ckptMu, not mu — folding a shard is heavier than
	// a progress snapshot).
	specHash string
	ckpt     *fleet.Checkpoint
	ckptMu   sync.Mutex

	mu              sync.Mutex
	state           State
	errMsg          string
	started         time.Time
	finished        time.Time
	shardDone       []int // per-shard completed-device counts
	failedDevices   int
	shardsDone      int
	retries         int
	resumedShards   int
	cancelRequested bool
	result          *fleet.Result
	subs            map[chan Progress]struct{}

	// Telemetry, all on the job timeline (durations since started):
	// daemonSpans holds the daemon-side dispatch/merge spans, workerSpans
	// the per-shard worker span batches (already offset by their dispatch
	// start), stageS the completed stage wall timings, cpu the total
	// worker CPU the runner observed.
	daemonSpans []obs.Span
	workerSpans [][]obs.Span
	stageS      map[string]float64
	cpu         time.Duration
}

func newJob(id string, spec JobSpec, devices int, now time.Time) *Job {
	return &Job{
		id:          id,
		spec:        spec,
		devices:     devices,
		shards:      spec.shards(),
		created:     now,
		state:       StateQueued,
		shardDone:   make([]int, spec.shards()),
		subs:        make(map[chan Progress]struct{}),
		workerSpans: make([][]obs.Span, spec.shards()),
		stageS:      make(map[string]float64),
	}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Result returns the merged campaign result once the job is done.
func (j *Job) Result() (*fleet.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.result != nil
}

// Progress takes a status snapshot.
func (j *Job) Progress() Progress {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.progressLocked()
}

func (j *Job) progressLocked() Progress {
	p := Progress{
		ID:            j.id,
		Label:         j.spec.Label,
		State:         j.state,
		Devices:       j.devices,
		FailedDevices: j.failedDevices,
		Shards:        j.shards,
		ShardsDone:    j.shardsDone,
		Retries:       j.retries,
		ResumedShards: j.resumedShards,
		Error:         j.errMsg,
	}
	for _, d := range j.shardDone {
		p.Done += d
	}
	if len(j.stageS) > 0 {
		p.StageS = make(map[string]float64, len(j.stageS))
		for k, v := range j.stageS {
			p.StageS[k] = v
		}
	}
	p.CPUS = j.cpu.Seconds()
	if !j.started.IsZero() {
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		p.ElapsedS = end.Sub(j.started).Seconds()
		if j.state == StateRunning && p.Done > 0 && p.Done < j.devices {
			p.ETAS = p.ElapsedS / float64(p.Done) * float64(j.devices-p.Done)
		}
	}
	return p
}

// Watch subscribes to the job's progress fan-out. The returned channel
// carries coalesced snapshots: a slow watcher sees the latest state, not
// a backlog. cancel unsubscribes; the channel is never closed, so reads
// must select against done conditions (snapshot.State.Terminal()).
func (j *Job) Watch() (<-chan Progress, func()) {
	ch := make(chan Progress, 1)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	cancel := func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
	return ch, cancel
}

// notifyLocked fans the current snapshot out to every watcher,
// latest-wins: a full buffer is drained before the fresh snapshot goes
// in, so no subscriber ever blocks the job.
func (j *Job) notifyLocked() {
	p := j.progressLocked()
	for ch := range j.subs {
		select {
		case ch <- p:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- p:
			default:
			}
		}
	}
}

// setRunning marks the job started.
func (j *Job) setRunning(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return
	}
	j.state = StateRunning
	j.started = now
	j.notifyLocked()
}

// sinceStart returns the job-timeline offset of "now" — time since the
// job started running (0 while still queued).
func (j *Job) sinceStart() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() {
		return 0
	}
	return time.Since(j.started)
}

// recordShard records one finished shard's telemetry: a daemon-side
// "dispatch" span covering the whole RunShard call (one lane per shard),
// the worker's own span batch shifted onto the job timeline, and the
// worker CPU time.
func (j *Job) recordShard(index int, res ShardResult, start, end time.Duration) {
	spans := make([]obs.Span, len(res.Shard.Spans))
	for k, s := range res.Shard.Spans {
		s.Start += start
		s.End += start
		spans[k] = s
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.daemonSpans = append(j.daemonSpans, obs.Span{Name: "dispatch", Worker: index, Start: start, End: end})
	// Failed attempts a RetryRunner burned before this success show up as
	// daemon-side lanes next to the dispatch span.
	for _, s := range res.AttemptSpans {
		s.Start += start
		s.End += start
		j.daemonSpans = append(j.daemonSpans, s)
	}
	j.workerSpans[index] = spans
	j.cpu += res.CPU
}

// noteRetry counts one re-dispatched shard attempt.
func (j *Job) noteRetry() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.retries++
	j.notifyLocked()
}

// userCancelled reports whether cancellation was requested through the
// API (vs the shutdown sweep) — the distinction that decides whether the
// job's persisted state is removed or kept for resume.
func (j *Job) userCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelRequested
}

// markResumed pre-fills progress for shards restored from a checkpoint:
// their device counts are complete before the job's first dispatch.
func (j *Job) markResumed(shardDevices map[int]int, failedDevices int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for shard, devices := range shardDevices {
		j.shardDone[shard] = devices
		j.shardsDone++
		j.resumedShards++
	}
	j.failedDevices = failedDevices
}

// recordStage records one completed stage's wall timing.
func (j *Job) recordStage(stage string, seconds float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.stageS[stage] = seconds
	j.notifyLocked()
}

// recordMerge records the central merge as both a daemon span and a
// stage timing.
func (j *Job) recordMerge(start, end time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.daemonSpans = append(j.daemonSpans, obs.Span{Name: "merge", Worker: 0, Start: start, End: end})
	j.stageS[StageMerge] = (end - start).Seconds()
	j.notifyLocked()
}

// WriteTrace writes the job's campaign trace as Chrome trace-event JSON:
// pid 1 is the daemon (dispatch lanes per shard plus the merge), pid 2+i
// is shard i's worker with the spans it recorded about itself ("run",
// "encode"), all on one wall-clock timeline starting at the job's run
// start.
func (j *Job) WriteTrace(w io.Writer) error {
	j.mu.Lock()
	daemon := append([]obs.Span(nil), j.daemonSpans...)
	workers := make([][]obs.Span, len(j.workerSpans))
	copy(workers, j.workerSpans)
	j.mu.Unlock()
	tr := obs.NewTrace()
	tr.AddSpans(1, "ccdem-svc "+j.id, daemon)
	for i, spans := range workers {
		tr.AddSpans(2+i, fmt.Sprintf("%s shard %d", j.id, i), spans)
	}
	return tr.Write(w)
}

// shardProgress records shard's cumulative completed-device count and
// returns the delta since the last report (for manager-level metrics).
func (j *Job) shardProgress(shard, done int) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	delta := done - j.shardDone[shard]
	if delta <= 0 {
		return 0
	}
	j.shardDone[shard] = done
	j.notifyLocked()
	return delta
}

// shardFinished records one shard's completion and its failure count.
func (j *Job) shardFinished(failed int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.shardsDone++
	j.failedDevices += failed
	j.notifyLocked()
}

// requestCancel flags the job as user-cancelled and cancels its run
// context. Terminal jobs are left untouched.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.cancelRequested = true
	j.mu.Unlock()
	j.cancel()
	return true
}

// finish moves the job to its terminal state.
func (j *Job) finish(result *fleet.Result, err error, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.finished = now
	if j.started.IsZero() {
		j.started = now
	}
	switch {
	case err == nil:
		j.state = StateDone
		j.result = result
		j.failedDevices = len(result.Failed)
	case j.cancelRequested || errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.errMsg = err.Error()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	j.notifyLocked()
}
