#!/usr/bin/env bash
# End-to-end smoke for the campaign service daemon (make svc): boot
# ccdem-svc, run a 2-way subprocess-sharded campaign through the HTTP
# API, and require the merged result to be byte-identical to the direct
# single-process `ccdem-fleet -stream` run of the same spec. Also checks
# the manual CLI halves (-shard / -merge-shards) and graceful SIGTERM
# shutdown.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
svc_pid=""
cleanup() {
  [ -n "$svc_pid" ] && kill "$svc_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/ccdem-svc" ./cmd/ccdem-svc
go build -o "$workdir/ccdem-fleet" ./cmd/ccdem-fleet

"$workdir/ccdem-fleet" -write-spec "$workdir/cohort.json" -devices 12 -duration 2 -seed 7
"$workdir/ccdem-fleet" -spec "$workdir/cohort.json" -stream > "$workdir/direct.json"

# --- CLI halves: shard runs merged by ccdem-fleet itself -------------
"$workdir/ccdem-fleet" -spec "$workdir/cohort.json" -shard 0/2 > "$workdir/shard0.json"
"$workdir/ccdem-fleet" -spec "$workdir/cohort.json" -shard 1/2 > "$workdir/shard1.json"
"$workdir/ccdem-fleet" -merge-shards "$workdir/shard0.json" "$workdir/shard1.json" > "$workdir/cli-merged.json"
diff "$workdir/cli-merged.json" "$workdir/direct.json"

# --- Service: daemon + worker subprocesses over HTTP -----------------
"$workdir/ccdem-svc" -listen 127.0.0.1:0 2> "$workdir/svc.log" &
svc_pid=$!

base=""
for _ in $(seq 1 100); do
  base=$(sed -n 's#.*listening on \(http://[^ ]*\).*#\1#p' "$workdir/svc.log" | head -n 1)
  [ -n "$base" ] && break
  sleep 0.1
done
if [ -z "$base" ]; then
  echo "svc smoke: daemon never reported its listen address" >&2
  cat "$workdir/svc.log" >&2
  exit 1
fi

curl -fsS "$base/healthz" > /dev/null
curl -fsS "$base/version" | grep -q go_version

id=$(jq -c '{spec: ., shards: 2, workers: 2}' "$workdir/cohort.json" \
  | curl -fsS -H 'Content-Type: application/json' -d @- "$base/api/jobs" \
  | jq -r .id)

state=queued
for _ in $(seq 1 300); do
  state=$(curl -fsS "$base/api/jobs/$id" | jq -r .state)
  case "$state" in done|failed|cancelled) break ;; esac
  sleep 0.1
done
if [ "$state" != done ]; then
  echo "svc smoke: job $id finished in state $state" >&2
  curl -fsS "$base/api/jobs/$id" >&2 || true
  cat "$workdir/svc.log" >&2
  exit 1
fi

curl -fsS "$base/api/jobs/$id/result" > "$workdir/svc-result.json"
diff "$workdir/svc-result.json" "$workdir/direct.json"

kill -TERM "$svc_pid"
wait "$svc_pid"
svc_pid=""

echo "svc smoke: sharded service and CLI results are byte-identical to the direct run"
