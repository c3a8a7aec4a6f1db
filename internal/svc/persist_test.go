package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ccdem/internal/buildinfo"
	"ccdem/internal/fleet"
)

func TestStoreRoundTrip(t *testing.T) {
	store, err := OpenStore(filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	doc := testSpecDoc(t, 8)
	if err := store.JournalSpec("job-0001", doc); err != nil {
		t.Fatalf("JournalSpec: %v", err)
	}
	got, err := store.LoadSpec("job-0001")
	if err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("LoadSpec = (%q, %v), want the journaled bytes back", got, err)
	}
	// No checkpoint yet is not an error — just no completed shards.
	if ck, err := store.LoadCheckpoint("job-0001"); ck != nil || err != nil {
		t.Fatalf("LoadCheckpoint before any write = (%v, %v), want (nil, nil)", ck, err)
	}
	ck := fleet.NewCheckpoint(SpecHash(doc), "v-test", 2)
	if err := store.WriteCheckpoint("job-0001", ck); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	loaded, err := store.LoadCheckpoint("job-0001")
	if err != nil || loaded == nil || loaded.SpecHash != SpecHash(doc) {
		t.Fatalf("LoadCheckpoint = (%+v, %v)", loaded, err)
	}
	ids, err := store.List()
	if err != nil || len(ids) != 1 || ids[0] != "job-0001" {
		t.Fatalf("List = (%v, %v), want [job-0001]", ids, err)
	}
	if err := store.Remove("job-0001"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	assertStateDirEmpty(t, store.Dir())
}

// assertStateDirEmpty: terminal cleanup must leave nothing behind — no
// journals, no checkpoints, and no stray atomic-write temp files.
func assertStateDirEmpty(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir(%s): %v", dir, err)
	}
	for _, e := range entries {
		t.Errorf("state dir not empty: %s left behind", e.Name())
	}
}

// holdRunner runs allowed shards in-process and parks the rest until its
// context dies — the campaign shape for "daemon lost mid-flight with
// some shards checkpointed".
type holdRunner struct {
	allow map[int]bool

	mu  sync.Mutex
	ran map[int]int
}

func newHoldRunner(allow ...int) *holdRunner {
	h := &holdRunner{allow: make(map[int]bool), ran: make(map[int]int)}
	for _, i := range allow {
		h.allow[i] = true
	}
	return h
}

func (h *holdRunner) runs(index int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ran[index]
}

func (h *holdRunner) RunShard(ctx context.Context, spec JobSpec, index int, progress func(int)) (ShardResult, error) {
	h.mu.Lock()
	h.ran[index]++
	h.mu.Unlock()
	if !h.allow[index] {
		<-ctx.Done()
		return ShardResult{}, ctx.Err()
	}
	return LocalRunner{}.RunShard(ctx, spec, index, progress)
}

// waitForCheckpoint polls until the job's persisted checkpoint claims at
// least wantDone completed shards.
func waitForCheckpoint(t *testing.T, store *Store, id string, wantDone int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ck, err := store.LoadCheckpoint(id)
		if err == nil && ck != nil && ck.DoneCount() >= wantDone {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint with %d done shards appeared for %s (last: %v, %v)", wantDone, id, ck, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestManagerResumesFromCheckpoint is the daemon-loss tentpole in
// miniature: manager A checkpoints one shard and goes down with the job
// incomplete (a shutdown-cancelled job keeps its journal — the graceful-
// drain half of the resume contract); manager B over the same state dir
// recovers the job under its original ID, re-runs only the missing
// shards, and produces a result byte-identical to the unfaulted direct
// run. Terminal cleanup then empties the state dir.
func TestManagerResumesFromCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	doc := testSpecDoc(t, 24)

	storeA, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	mA := NewManager(Config{Runner: newHoldRunner(0), Store: storeA})
	job, err := mA.Submit(JobSpec{Spec: doc, Shards: 3, Workers: 2, Label: "resume-me"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitForCheckpoint(t, storeA, job.ID(), 1)
	// The daemon "dies": shutdown cancels the held shards; the journal
	// and checkpoint stay on disk because the user never cancelled.
	if err := mA.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if p := job.Progress(); p.State != StateCancelled {
		t.Fatalf("state after shutdown = %s, want cancelled", p.State)
	}

	storeB, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	runnerB := newHoldRunner(0, 1, 2)
	var logBuf logBuffer
	mB := NewManager(Config{
		Runner: runnerB,
		Store:  storeB,
		Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	defer mB.Shutdown(context.Background())
	resumed, err := mB.Recover()
	if err != nil || resumed != 1 {
		t.Fatalf("Recover = (%d, %v), want (1, nil)", resumed, err)
	}
	jobB, ok := mB.Job(job.ID())
	if !ok {
		t.Fatalf("recovered manager has no job %s", job.ID())
	}
	p := waitTerminal(t, jobB)
	if p.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", p.State, p.Error)
	}
	if p.ResumedShards < 1 {
		t.Errorf("ResumedShards = %d, want >= 1", p.ResumedShards)
	}
	if p.Label != "resume-me" || p.Done != 24 {
		t.Errorf("resumed progress = %+v, want the original label and full device count", p)
	}
	// Shard 0 was checkpointed by manager A, so manager B must not have
	// dispatched it — resuming means skipping already-merged work.
	if ran := runnerB.runs(0); ran != 0 {
		t.Errorf("checkpointed shard 0 re-ran %d times", ran)
	}
	if runnerB.runs(1) != 1 || runnerB.runs(2) != 1 {
		t.Errorf("missing shards ran (%d, %d) times, want exactly once each",
			runnerB.runs(1), runnerB.runs(2))
	}

	result, ok := jobB.Result()
	if !ok {
		t.Fatal("done job has no result")
	}
	var got bytes.Buffer
	if err := result.WriteJSON(&got, false); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if want := directRunJSON(t, doc); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("resumed campaign differs from direct run:\n got: %s\nwant: %s", got.Bytes(), want)
	}
	assertStateDirEmpty(t, dir)
	if !strings.Contains(logBuf.String(), "job recovered") {
		t.Errorf("recovery not logged:\n%s", logBuf.String())
	}
}

// TestRecoverRejectsBadCheckpoints: every way a checkpoint can lie —
// corrupt bytes, wrong spec, wrong code version, wrong shard count —
// must be refused with a structured log record, and the job restarted
// from scratch rather than resumed over a suspect prefix.
func TestRecoverRejectsBadCheckpoints(t *testing.T) {
	doc := testSpecDoc(t, 12)
	specDoc, err := jsonMarshalSpec(JobSpec{Spec: doc, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	hash := SpecHash(specDoc)
	version := buildinfo.Get().Version

	cases := []struct {
		name  string
		write func(t *testing.T, store *Store, id string)
	}{
		{"corrupt document", func(t *testing.T, store *Store, id string) {
			path := filepath.Join(store.Dir(), id+ckptSuffix)
			if err := os.WriteFile(path, []byte(`{"version":1,"crc32":"00000000","payload":{}`), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"spec hash mismatch", func(t *testing.T, store *Store, id string) {
			ck := fleet.NewCheckpoint("not-the-journaled-spec", version, 3)
			if err := store.WriteCheckpoint(id, ck); err != nil {
				t.Fatal(err)
			}
		}},
		{"code version skew", func(t *testing.T, store *Store, id string) {
			ck := fleet.NewCheckpoint(hash, version+"-older", 3)
			if err := store.WriteCheckpoint(id, ck); err != nil {
				t.Fatal(err)
			}
		}},
		{"shard count mismatch", func(t *testing.T, store *Store, id string) {
			ck := fleet.NewCheckpoint(hash, version, 5)
			if err := store.WriteCheckpoint(id, ck); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store, err := OpenStore(filepath.Join(t.TempDir(), "state"))
			if err != nil {
				t.Fatalf("OpenStore: %v", err)
			}
			if err := store.JournalSpec("job-0007", specDoc); err != nil {
				t.Fatalf("JournalSpec: %v", err)
			}
			tc.write(t, store, "job-0007")

			var logBuf logBuffer
			m := NewManager(Config{
				Runner: LocalRunner{},
				Store:  store,
				Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
			})
			defer m.Shutdown(context.Background())
			resumed, err := m.Recover()
			if err != nil || resumed != 1 {
				t.Fatalf("Recover = (%d, %v), want the job re-admitted from scratch", resumed, err)
			}
			if !strings.Contains(logBuf.String(), "checkpoint rejected") {
				t.Errorf("rejection not logged:\n%s", logBuf.String())
			}
			job, ok := m.Job("job-0007")
			if !ok {
				t.Fatal("job not re-admitted")
			}
			p := waitTerminal(t, job)
			if p.State != StateDone || p.ResumedShards != 0 {
				t.Fatalf("state = %s, resumed = %d; want a clean from-scratch done run", p.State, p.ResumedShards)
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
				t.Errorf("from-scratch rerun differs from direct run")
			}
			// The new ID sequence must not collide with the recovered ID.
			job2, err := m.Submit(JobSpec{Spec: doc})
			if err != nil {
				t.Fatalf("Submit after recover: %v", err)
			}
			if job2.ID() == "job-0007" {
				t.Errorf("new submission reused recovered ID %s", job2.ID())
			}
			waitTerminal(t, job2)
		})
	}
}

// TestRecoverDropsInvalidSpecJournal: recovery reads journals through
// DecodeJobSpec, so a journal the HTTP API would have refused — an
// unknown field, or a valid job followed by trailing data — is dropped,
// not resumed.
func TestRecoverDropsInvalidSpecJournal(t *testing.T) {
	good, err := json.Marshal(JobSpec{Spec: testSpecDoc(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string]string{
		"unknown field": `{"spec": null, "nonsense": true}`,
		"trailing data": string(good) + ` {"spec": null}`,
	} {
		t.Run(name, func(t *testing.T) {
			store, err := OpenStore(filepath.Join(t.TempDir(), "state"))
			if err != nil {
				t.Fatalf("OpenStore: %v", err)
			}
			if err := store.JournalSpec("job-0001", []byte(doc)); err != nil {
				t.Fatalf("JournalSpec: %v", err)
			}
			var logBuf logBuffer
			m := NewManager(Config{
				Runner: LocalRunner{},
				Store:  store,
				Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
			})
			defer m.Shutdown(context.Background())
			resumed, err := m.Recover()
			if err != nil || resumed != 0 {
				t.Fatalf("Recover = (%d, %v), want (0, nil)", resumed, err)
			}
			if !strings.Contains(logBuf.String(), "invalid spec journal") {
				t.Errorf("drop not logged:\n%s", logBuf.String())
			}
			assertStateDirEmpty(t, store.Dir())
		})
	}
}

// TestRecoverCompleteCheckpoint: a job whose checkpoint already covers
// every shard finishes without dispatching anything.
func TestRecoverCompleteCheckpoint(t *testing.T) {
	doc := testSpecDoc(t, 12)
	spec := JobSpec{Spec: doc, Shards: 3}
	store, err := OpenStore(filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	specDoc, err := jsonMarshalSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.JournalSpec("job-0002", specDoc); err != nil {
		t.Fatalf("JournalSpec: %v", err)
	}
	ck := fleet.NewCheckpoint(SpecHash(specDoc), buildinfo.Get().Version, 3)
	for i := 0; i < 3; i++ {
		cohort, pool, err := spec.shardCohort(i)
		if err != nil {
			t.Fatalf("shardCohort(%d): %v", i, err)
		}
		shard, err := cohort.RunShard(context.Background(), pool)
		if err != nil {
			t.Fatalf("RunShard(%d): %v", i, err)
		}
		if err := ck.AddShard(shard); err != nil {
			t.Fatalf("AddShard(%d): %v", i, err)
		}
	}
	if err := store.WriteCheckpoint("job-0002", ck); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}

	runner := newHoldRunner() // errors loudly if anything dispatches: nothing is allowed
	m := NewManager(Config{Runner: runner, Store: store})
	defer m.Shutdown(context.Background())
	if resumed, err := m.Recover(); err != nil || resumed != 1 {
		t.Fatalf("Recover = (%d, %v)", resumed, err)
	}
	job, ok := m.Job("job-0002")
	if !ok {
		t.Fatal("job not re-admitted")
	}
	p := waitTerminal(t, job)
	if p.State != StateDone || p.ResumedShards != 3 {
		t.Fatalf("state = %s, resumed = %d, want done with all 3 shards resumed", p.State, p.ResumedShards)
	}
	for i := 0; i < 3; i++ {
		if runner.runs(i) != 0 {
			t.Errorf("shard %d dispatched despite a complete checkpoint", i)
		}
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
		t.Errorf("checkpoint-only result differs from direct run")
	}
	assertStateDirEmpty(t, store.Dir())
}

// TestUserCancelRemovesState: an API cancel is a decision, not a crash —
// the job's persisted state must not resurrect it on the next boot.
func TestUserCancelRemovesState(t *testing.T) {
	store, err := OpenStore(filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	runner := newGateRunner(true)
	m := NewManager(Config{Runner: runner, Store: store})
	defer m.Shutdown(context.Background())
	job, err := m.Submit(JobSpec{Spec: testSpecDoc(t, 6)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-runner.started
	if err := m.Cancel(job.ID()); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if p := waitTerminal(t, job); p.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", p.State)
	}
	assertStateDirEmpty(t, store.Dir())
}

// jsonMarshalSpec journals a spec the way Submit does, so hand-built
// journals in tests hash identically.
func jsonMarshalSpec(spec JobSpec) ([]byte, error) {
	return json.Marshal(spec)
}

// TestOpenStoreSweepsStaleTempFiles: a kill -9 between CreateTemp and
// the rename leaves a ".tmp-*" file behind; reopening the store must
// sweep it (it is incomplete by construction) and leave real documents
// alone.
func TestOpenStoreSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.JournalSpec("job-0001", []byte(`{"spec":{}}`)); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "job-0001.ckpt.tmp-123456")
	if err := os.WriteFile(stale, []byte("torn write"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err != nil {
		t.Fatalf("reopening store: %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived reopen (%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "job-0001.spec.json")); err != nil {
		t.Errorf("spec journal swept by mistake: %v", err)
	}
}
