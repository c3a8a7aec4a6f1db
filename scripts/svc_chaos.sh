#!/usr/bin/env bash
# Fault-tolerance smoke for the campaign service daemon (make svc-chaos),
# DESIGN.md §14. Two scenarios, one invariant: the merged result must be
# byte-identical to the direct single-process `ccdem-fleet -stream` run.
#
#   1. Worker loss: a shard worker SIGKILLs itself mid-shard (crash plan
#      in CCDEM_SVC_CRASH, armed through a file so exactly one attempt
#      dies); the daemon re-dispatches the shard and finishes the job.
#   2. Daemon loss: the daemon is killed with SIGKILL mid-campaign and
#      restarted over the same -state-dir; it resumes the journaled job
#      under its original ID, skips checkpointed shards, and finishes.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
svc_pid=""
cleanup() {
  [ -n "$svc_pid" ] && kill -9 "$svc_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/ccdem-svc" ./cmd/ccdem-svc
go build -o "$workdir/ccdem-fleet" ./cmd/ccdem-fleet

"$workdir/ccdem-fleet" -write-spec "$workdir/cohort.json" -devices 24 -duration 2 -seed 7
"$workdir/ccdem-fleet" -spec "$workdir/cohort.json" -stream > "$workdir/direct.json"

# start_daemon <logfile> [extra flags...] — boots the daemon, waits for
# the listen report, and leaves $svc_pid/$base set.
start_daemon() {
  local log=$1; shift
  "$workdir/ccdem-svc" -listen 127.0.0.1:0 -log-format json "$@" 2> "$log" &
  svc_pid=$!
  base=""
  for _ in $(seq 1 100); do
    base=$(sed -n 's#.*listening on \(http://[^ ]*\).*#\1#p' "$log" | head -n 1)
    [ -n "$base" ] && break
    sleep 0.1
  done
  if [ -z "$base" ]; then
    echo "svc chaos: daemon never reported its listen address" >&2
    cat "$log" >&2
    exit 1
  fi
}

submit_job() { # submit_job <shards> -> job id on stdout
  jq -c --argjson shards "$1" '{spec: ., shards: $shards, workers: 2}' "$workdir/cohort.json" \
    | curl -fsS -H 'Content-Type: application/json' -d @- "$base/api/jobs" \
    | jq -r .id
}

wait_done() { # wait_done <job id> <logfile>
  local id=$1 log=$2 state=queued
  for _ in $(seq 1 600); do
    state=$(curl -fsS "$base/api/jobs/$id" | jq -r .state)
    case "$state" in done|failed|cancelled) break ;; esac
    sleep 0.1
  done
  if [ "$state" != done ]; then
    echo "svc chaos: job $id finished in state $state" >&2
    curl -fsS "$base/api/jobs/$id" >&2 || true
    cat "$log" >&2
    exit 1
  fi
}

# --- Scenario 1: shard worker killed mid-shard, re-dispatched --------
arm="$workdir/crash-armed"
touch "$arm"
CCDEM_SVC_CRASH="shard=1,after=2,mode=kill,file=$arm" \
  start_daemon "$workdir/svc-kill.log" -shard-retries 3
id=$(submit_job 3)
wait_done "$id" "$workdir/svc-kill.log"

if [ -e "$arm" ]; then
  echo "svc chaos: crash plan never fired (arming file still present)" >&2
  exit 1
fi
retries=$(curl -fsS "$base/api/jobs/$id" | jq -r '.retries // 0')
if [ "$retries" -lt 1 ]; then
  echo "svc chaos: expected at least one shard re-dispatch, got $retries" >&2
  exit 1
fi
curl -fsS "$base/metrics" | grep -q '^svc_shard_retries_total{class="worker_exit"}'
grep -q 're-dispatching' "$workdir/svc-kill.log"

curl -fsS "$base/api/jobs/$id/result" > "$workdir/kill-result.json"
diff "$workdir/kill-result.json" "$workdir/direct.json"

kill -TERM "$svc_pid"
wait "$svc_pid"
svc_pid=""
echo "svc chaos: worker-kill campaign is byte-identical to the direct run ($retries re-dispatches)"

# --- Scenario 2: daemon SIGKILLed mid-campaign, resumed from disk ----
# A one-shot worker kill on the last shard holds the campaign open past
# its siblings (retry backoff + re-run), so the daemon kill below lands
# while earlier shards are already checkpointed but the job is not done.
state_dir="$workdir/state"
touch "$arm"
CCDEM_SVC_CRASH="shard=5,after=2,mode=kill,file=$arm" \
  start_daemon "$workdir/svc-crash.log" -state-dir "$state_dir"
id=$(submit_job 6)

# Wait for the first checkpoint write, then kill -9 the daemon: no
# drain, no warning — the crash-safe persistence must carry the job.
ckpt="$state_dir/$id.ckpt"
for _ in $(seq 1 600); do
  [ -e "$ckpt" ] && break
  sleep 0.02
done
if [ ! -e "$ckpt" ]; then
  echo "svc chaos: no checkpoint appeared at $ckpt" >&2
  cat "$workdir/svc-crash.log" >&2
  exit 1
fi
kill -9 "$svc_pid"
wait "$svc_pid" 2>/dev/null || true
svc_pid=""

start_daemon "$workdir/svc-resume.log" -state-dir "$state_dir"
grep -q 'job recovered' "$workdir/svc-resume.log"
wait_done "$id" "$workdir/svc-resume.log"

resumed=$(curl -fsS "$base/api/jobs/$id" | jq -r '.resumed_shards // 0')
if [ "$resumed" -lt 1 ]; then
  echo "svc chaos: expected resumed shards after daemon crash, got $resumed" >&2
  exit 1
fi
curl -fsS "$base/api/jobs/$id/result" > "$workdir/resume-result.json"
diff "$workdir/resume-result.json" "$workdir/direct.json"

# Terminal jobs clean their journal: a third boot has nothing to resume.
if [ -n "$(ls -A "$state_dir")" ]; then
  echo "svc chaos: state dir not cleaned after completion:" >&2
  ls -l "$state_dir" >&2
  exit 1
fi

kill -TERM "$svc_pid"
wait "$svc_pid"
svc_pid=""

echo "svc chaos: resumed campaign is byte-identical to the direct run ($resumed shards from checkpoint)"
