// Command ccdem-svc is the campaign service daemon: a long-running HTTP
// server that accepts fleet cohort specs as asynchronous jobs, shards
// each campaign across worker subprocesses (one per shard, the daemon
// re-executing itself in -shard-worker mode), streams live per-job
// progress, and serves the centrally merged result — byte-identical to a
// single-process `ccdem-fleet -spec ... -stream` run of the same spec.
//
// Examples:
//
//	ccdem-svc -listen 127.0.0.1:7700
//	curl -s -d @job.json localhost:7700/api/jobs
//	curl -s localhost:7700/api/jobs/job-0001/watch
//	curl -s localhost:7700/api/jobs/job-0001/result
//
// SIGINT/SIGTERM stop admission, cancel running campaigns, and drain
// within -shutdown-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ccdem/internal/buildinfo"
	"ccdem/internal/obs"
	"ccdem/internal/svc"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func realMain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccdem-svc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:7700", "address to serve the job API on (port 0 picks a free port, reported on stderr)")
	maxJobs := fs.Int("max-jobs", 2, "campaigns running concurrently; further submissions queue")
	local := fs.Bool("local", false, "run shards in-process instead of one worker subprocess per shard")
	shutdownTimeout := fs.Duration("shutdown-timeout", 30*time.Second, "drain budget after SIGINT/SIGTERM before giving up on running jobs")
	shardWorker := fs.String("shard-worker", "", "internal: run one shard at position i/n — job document on stdin, shard document on stdout, progress on stderr")
	logFormat := fs.String("log-format", "text", "structured log format on stderr: text or json")
	debugAddr := fs.String("debug-addr", "", "optional address for the net/http/pprof profiling endpoints (off when empty)")
	stateDir := fs.String("state-dir", "", "directory for crash-safe job persistence: specs are journaled and campaigns checkpointed after every completed shard so a restarted daemon resumes incomplete jobs (off when empty)")
	shardRetries := fs.Int("shard-retries", 3, "attempts per shard (first try included) before the campaign fails")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *shardRetries < 1 {
		fmt.Fprintf(stderr, "ccdem-svc: -shard-retries must be at least 1, got %d\n", *shardRetries)
		return 2
	}
	if *version {
		buildinfo.Fprint(stdout, "ccdem-svc")
		return 0
	}
	logger, err := obs.NewLogger(stderr, *logFormat)
	if err != nil {
		fmt.Fprintf(stderr, "ccdem-svc: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *shardWorker != "" {
		if err := svc.RunWorker(ctx, *shardWorker, stdin, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "ccdem-svc: %v\n", err)
			return 1
		}
		return 0
	}

	runner := svc.Runner(svc.LocalRunner{})
	if !*local {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(stderr, "ccdem-svc: locating own executable for shard workers: %v (use -local)\n", err)
			return 1
		}
		runner = svc.ProcRunner{Exe: exe, Args: []string{"-shard-worker"}}
	}

	var store *svc.Store
	if *stateDir != "" {
		store, err = svc.OpenStore(*stateDir)
		if err != nil {
			fmt.Fprintf(stderr, "ccdem-svc: %v\n", err)
			return 1
		}
	}
	m := svc.NewManager(svc.Config{
		Runner:  runner,
		MaxJobs: *maxJobs,
		Logger:  logger,
		Store:   store,
		Retry:   svc.RetryPolicy{MaxAttempts: *shardRetries},
	})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "ccdem-svc: %v\n", err)
		return 1
	}
	// The listen report stays the first stderr line — the smoke scripts
	// and tests parse the bound address out of it.
	fmt.Fprintf(stderr, "ccdem-svc: listening on http://%s\n", ln.Addr())
	// Resume journaled jobs after the listen line (tests parse stderr
	// order) but before serving, so recovered IDs can't collide with new
	// submissions.
	if store != nil {
		resumed, err := m.Recover()
		if err != nil {
			fmt.Fprintf(stderr, "ccdem-svc: recovering jobs: %v\n", err)
			return 1
		}
		if resumed > 0 {
			logger.Info("recovered incomplete jobs", "jobs", resumed, "dir", store.Dir())
		}
	}
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "ccdem-svc: debug listener: %v\n", err)
			return 1
		}
		// An explicit mux rather than http.DefaultServeMux: profiling is
		// opt-in and stays off the job API listener.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(stderr, "ccdem-svc: pprof on http://%s/debug/pprof/\n", dln.Addr())
		go http.Serve(dln, dmux)
	}
	srv := &http.Server{Handler: svc.Handler(m)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "ccdem-svc: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	// Restore default signal handling so a second signal kills outright.
	stop()
	fmt.Fprintf(stderr, "ccdem-svc: shutting down (budget %v)\n", *shutdownTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	m.BeginShutdown()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "ccdem-svc: draining http: %v\n", err)
	}
	if err := m.Wait(sctx); err != nil {
		fmt.Fprintf(stderr, "ccdem-svc: %v\n", err)
		return 1
	}
	return 0
}
