package svc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"strings"
	"time"

	"ccdem/internal/fleet"
	"ccdem/internal/obs"
)

// ShardResult is one shard execution's outcome: the shard document
// (which carries the worker's own telemetry spans) plus what the runner
// could observe from outside the run — CPU time consumed by a worker
// subprocess, zero when unknown (in-process runs), and any daemon-side
// spans for failed attempts a RetryRunner burned before succeeding
// (relative to the shard's dispatch).
type ShardResult struct {
	Shard        *fleet.Shard
	CPU          time.Duration
	AttemptSpans []obs.Span
}

// Runner executes one shard of a campaign and returns its accumulator
// shard. progress, when non-nil, receives the shard's cumulative
// completed-device count; calls may come from other goroutines and must
// be cheap. Runners log through LoggerFrom(ctx).
type Runner interface {
	RunShard(ctx context.Context, spec JobSpec, index int, progress func(done int)) (ShardResult, error)
}

// LocalRunner runs shards in-process — the zero-dependency mode for
// tests and single-machine deployments that don't want subprocess
// isolation.
type LocalRunner struct{}

// RunShard implements Runner.
func (LocalRunner) RunShard(ctx context.Context, spec JobSpec, index int, progress func(done int)) (ShardResult, error) {
	cohort, pool, err := spec.shardCohort(index)
	if err != nil {
		return ShardResult{}, Permanent(err)
	}
	if progress != nil {
		pool.OnProgress = func(done, total int) { progress(done) }
	}
	start := time.Now()
	shard, err := cohort.RunShard(ctx, pool)
	if err != nil {
		return ShardResult{}, err
	}
	shard.Spans = append(shard.Spans, obs.Span{Name: "run", Start: 0, End: time.Since(start)})
	return ShardResult{Shard: shard}, nil
}

// progressPrefix is the shard worker's stderr progress protocol: lines
// "ccdem-shard-progress <done> <total>". JSON lines are worker log
// records, relayed into the daemon's log stream; everything else on
// stderr is diagnostic text, kept (bounded) for error reporting.
const progressPrefix = "ccdem-shard-progress "

// maxWorkerDiagBytes bounds the diagnostic text retained per worker — a
// total-byte bound, so a worker spewing long lines cannot balloon the
// daemon's memory no matter how its output splits into lines.
const maxWorkerDiagBytes = 16 * 1024

// maxWorkerOutputBytes is the default cap on a worker's stdout. Shard
// wire documents are small (sparse histograms, a few profiles); 64 MiB
// is orders of magnitude above any legitimate document, so hitting it
// means the worker is misbehaving, not the campaign is large.
const maxWorkerOutputBytes = 64 << 20

// ProcRunner runs each shard in its own worker subprocess: Exe invoked
// with Args plus the "index/count" shard position, the JobSpec document
// on stdin, the shard wire document expected on stdout, and progress,
// log, and diagnostic lines on stderr. Cancelling the context kills the
// worker.
type ProcRunner struct {
	// Exe is the worker binary — normally the daemon's own executable
	// (os.Executable), re-entered in shard-worker mode.
	Exe string
	// Args select the worker mode, e.g. ["-shard-worker"]; the shard
	// position is appended as the final argument.
	Args []string
	// MaxOutputBytes caps the worker's stdout; a worker exceeding it is
	// killed and the shard fails with a CorruptShardError wrapping
	// OversizeOutputError (retryable — a fresh worker may behave). <=0
	// means the 64 MiB default.
	MaxOutputBytes int64
}

// boundedWriter buffers up to limit bytes; the first write past the
// limit triggers kill (stopping the producer) and further bytes are
// discarded without error so exec's stdout copier never stalls.
type boundedWriter struct {
	buf        bytes.Buffer
	limit      int64
	kill       func()
	overflowed bool
}

func (w *boundedWriter) Write(p []byte) (int, error) {
	if !w.overflowed {
		if room := w.limit - int64(w.buf.Len()); int64(len(p)) > room {
			w.overflowed = true
			w.buf.Write(p[:room])
			w.kill()
		} else {
			w.buf.Write(p)
		}
	}
	return len(p), nil
}

// RunShard implements Runner.
func (p ProcRunner) RunShard(ctx context.Context, spec JobSpec, index int, progress func(done int)) (ShardResult, error) {
	// Validate locally first: a malformed spec should fail fast with a
	// real error, not a worker exit status.
	if _, _, err := spec.shardCohort(index); err != nil {
		return ShardResult{}, Permanent(err)
	}
	logger := LoggerFrom(ctx)
	specDoc, err := json.Marshal(spec)
	if err != nil {
		return ShardResult{}, Permanent(err)
	}
	limit := p.MaxOutputBytes
	if limit <= 0 {
		limit = maxWorkerOutputBytes
	}
	args := append(append([]string{}, p.Args...), fmt.Sprintf("%d/%d", index, spec.shards()))
	cmd := exec.CommandContext(ctx, p.Exe, args...)
	cmd.Stdin = bytes.NewReader(specDoc)
	// exec's stdout copier starts after Start has set cmd.Process, so the
	// kill closure below observes it race-free.
	stdout := &boundedWriter{limit: limit, kill: func() {
		if proc := cmd.Process; proc != nil {
			proc.Kill()
		}
	}}
	cmd.Stdout = stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return ShardResult{}, err
	}
	// Don't linger on workers that ignore the kill long enough to wedge
	// shutdown.
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Start(); err != nil {
		return ShardResult{}, fmt.Errorf("svc: shard %d worker: %w", index, err)
	}
	// Drain stderr on the spot: progress lines feed the callback, JSON
	// log records are folded into the daemon's stream with the shard
	// attr, the rest is kept (bounded) as context for a failure.
	var diag strings.Builder
	diagTruncated := false
	scanner := bufio.NewScanner(stderr)
	scanner.Buffer(make([]byte, 0, 64*1024), 256*1024)
	for scanner.Scan() {
		line := scanner.Text()
		if rest, ok := strings.CutPrefix(line, progressPrefix); ok {
			var done, total int
			if _, err := fmt.Sscanf(rest, "%d %d", &done, &total); err == nil && progress != nil {
				progress(done)
			}
			continue
		}
		if obs.RelayJSONLine(logger, line, slog.Int("shard", index)) {
			continue
		}
		trunc := false
		if n := maxWorkerDiagBytes - diag.Len(); n > 0 {
			if len(line)+1 > n {
				line, trunc = line[:n-1], true
			}
			diag.WriteString(line)
			diag.WriteByte('\n')
		} else {
			trunc = true
		}
		if trunc && !diagTruncated {
			diagTruncated = true
			logger.LogAttrs(ctx, slog.LevelWarn, "shard worker diagnostics truncated",
				slog.Int("shard", index), slog.Int("limit_bytes", maxWorkerDiagBytes))
		}
	}
	if err := cmd.Wait(); err != nil {
		if ctx.Err() != nil {
			return ShardResult{}, ctx.Err()
		}
		if stdout.overflowed {
			return ShardResult{}, &CorruptShardError{Index: index, Err: &OversizeOutputError{Limit: limit}}
		}
		msg := strings.TrimSpace(diag.String())
		if msg != "" {
			return ShardResult{}, fmt.Errorf("svc: shard %d worker: %w: %s", index, err, msg)
		}
		return ShardResult{}, fmt.Errorf("svc: shard %d worker: %w", index, err)
	}
	if stdout.overflowed {
		return ShardResult{}, &CorruptShardError{Index: index, Err: &OversizeOutputError{Limit: limit}}
	}
	var cpu time.Duration
	if st := cmd.ProcessState; st != nil {
		cpu = st.UserTime() + st.SystemTime()
	}
	shard, err := fleet.DecodeShard(&stdout.buf)
	if err != nil {
		return ShardResult{}, &CorruptShardError{Index: index, Err: err}
	}
	if shard.Index != index || shard.Count != spec.shards() {
		return ShardResult{}, &CorruptShardError{Index: index, Err: fmt.Errorf("worker returned shard %d/%d, want %d/%d",
			shard.Index, shard.Count, index, spec.shards())}
	}
	return ShardResult{Shard: shard, CPU: cpu}, nil
}

// RunWorker is the shard-worker subprocess entry point (ccdem-svc
// -shard-worker i/n): read the JobSpec document from stdin, run the
// shard, stream progress lines on stderr, and write the shard wire
// document on stdout. The exit contract is the inverse of
// ProcRunner.RunShard. Log records go to stderr as JSON (always — the
// parent daemon relays them regardless of its own -log-format), and the
// shard document carries "run" and "encode" telemetry spans.
func RunWorker(ctx context.Context, shardArg string, stdin io.Reader, stdout, stderr io.Writer) error {
	logger := slog.New(slog.NewJSONHandler(stderr, nil))
	index, count, err := fleet.ParseShard(shardArg)
	if err != nil {
		return err
	}
	spec, err := DecodeJobSpec(stdin)
	if err != nil {
		return fmt.Errorf("svc: worker: parsing job spec: %w", err)
	}
	if got := spec.shards(); got != count {
		return fmt.Errorf("svc: worker: shard position %s against a %d-shard spec", shardArg, got)
	}
	cohort, pool, err := spec.shardCohort(index)
	if err != nil {
		return err
	}
	// Deterministic crash injection (chaos tests): a malformed plan fails
	// the worker fast — a chaos harness with a typo must not silently run
	// a clean campaign.
	plan, err := parseCrashPlan(os.Getenv(CrashEnv))
	if err != nil {
		return err
	}
	if plan != nil && (plan.shard != index || !plan.armed()) {
		plan = nil
	}
	logger.LogAttrs(ctx, slog.LevelInfo, "shard worker starting",
		slog.Int("shard", index), slog.Int("of", count), slog.Int("cohort_devices", cohort.Devices))
	// Throttled progress: one line per ~200ms of wall clock plus the
	// final count, so a million-device shard doesn't drown stderr.
	var last time.Time
	pool.OnProgress = func(done, total int) {
		// The pool serializes OnProgress calls, so the crash fires at an
		// exact, reproducible completed-device count.
		if plan != nil && plan.mode != crashTruncate && done >= plan.after {
			plan.fire()
		}
		now := time.Now()
		if done != total && now.Sub(last) < 200*time.Millisecond {
			return
		}
		last = now
		fmt.Fprintf(stderr, "%s%d %d\n", progressPrefix, done, total)
	}
	t0 := time.Now()
	shard, err := cohort.RunShard(ctx, pool)
	if err != nil {
		logger.LogAttrs(ctx, slog.LevelError, "shard failed",
			slog.Int("shard", index), slog.String("error", err.Error()))
		return err
	}
	runEnd := time.Since(t0)
	shard.Spans = append(shard.Spans, obs.Span{Name: "run", Start: 0, End: runEnd})
	// Time the encode itself with a dry run to io.Discard, then emit the
	// real document with the "encode" span included.
	encStart := time.Since(t0)
	if err := shard.Encode(io.Discard); err != nil {
		return err
	}
	encEnd := time.Since(t0)
	shard.Spans = append(shard.Spans, obs.Span{Name: "encode", Start: encStart, End: encEnd})
	logger.LogAttrs(ctx, slog.LevelInfo, "shard complete",
		slog.Int("shard", index),
		slog.Int("devices", shard.Acc.Devices()+len(shard.Failed)),
		slog.Int("failed_devices", len(shard.Failed)),
		obs.DurationSeconds("run_s", runEnd))
	if plan != nil && plan.mode == crashTruncate {
		// Simulate a worker dying mid-write: emit only a prefix of the
		// shard document and report success, so the parent exercises its
		// corrupt-document path rather than its exit-status path.
		var doc bytes.Buffer
		if err := shard.Encode(&doc); err != nil {
			return err
		}
		n := plan.truncate
		if n > doc.Len() {
			n = doc.Len()
		}
		_, err := stdout.Write(doc.Bytes()[:n])
		return err
	}
	return shard.Encode(stdout)
}
