#!/usr/bin/env bash
# Telemetry smoke for the campaign service daemon (make telemetry): boot
# ccdem-svc with JSON logs and the pprof listener, run a 2-way
# subprocess-sharded campaign, and hold every telemetry surface to its
# contract — /metrics must pass the strict Prometheus parser
# (ccdem-obscheck), the campaign trace must carry dispatch/run/encode/
# merge spans from the daemon plus one process per shard worker, the log
# stream must be structured JSON with job correlation, and the read
# endpoints must declare no-store caching. A final step exposes the
# device-level fleet registry (ccdem-fleet -metrics-prom) and holds the
# palette/memo counter families to the same strict parser. Needs curl
# and jq.
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
go build -o "$workdir/ccdem-obscheck" ./cmd/ccdem-obscheck

"$workdir/ccdem-fleet" -write-spec "$workdir/cohort.json" -devices 12 -duration 2 -seed 7

"$workdir/ccdem-svc" -listen 127.0.0.1:0 -debug-addr 127.0.0.1:0 -log-format json \
  2> "$workdir/svc.log" &
svc_pid=$!

base=""
for _ in $(seq 1 100); do
  base=$(sed -n 's#.*listening on \(http://[^ ]*\).*#\1#p' "$workdir/svc.log" | head -n 1)
  [ -n "$base" ] && break
  sleep 0.1
done
if [ -z "$base" ]; then
  echo "telemetry smoke: daemon never reported its listen address" >&2
  cat "$workdir/svc.log" >&2
  exit 1
fi
debug=$(sed -n 's#.*pprof on \(http://[^ ]*\).*#\1#p' "$workdir/svc.log" | head -n 1)
if [ -z "$debug" ]; then
  echo "telemetry smoke: daemon never reported its pprof address" >&2
  cat "$workdir/svc.log" >&2
  exit 1
fi

# --- Exposition format, before any job ------------------------------
curl -fsS "$base/metrics" | "$workdir/ccdem-obscheck" -prom - \
  -require ccdem_build_info,svc_jobs_submitted_total,svc_job_duration_s

# Header contract: exposition content type + no-store on read endpoints.
headers=$(curl -fsS -D - -o /dev/null "$base/metrics")
echo "$headers" | grep -qi 'content-type: text/plain; version=0.0.4'
echo "$headers" | grep -qi 'cache-control: no-store'
curl -fsS -D - -o /dev/null "$base/api/jobs" | grep -qi 'cache-control: no-store'

# --- A 2-way subprocess-sharded campaign ----------------------------
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
  echo "telemetry smoke: job $id finished in state $state" >&2
  cat "$workdir/svc.log" >&2
  exit 1
fi

# Stage timings ride the status document.
curl -fsS "$base/api/jobs/$id" | jq -e '.stage_s.run > 0' > /dev/null

# --- Campaign trace: daemon + one pid per shard worker --------------
curl -fsS "$base/api/jobs/$id/trace" > "$workdir/trace.json"
"$workdir/ccdem-obscheck" -trace "$workdir/trace.json" -min-pids 3 \
  -spans dispatch,run,encode,merge

# --- Metrics after the run, including per-job series ----------------
curl -fsS "$base/metrics" | "$workdir/ccdem-obscheck" -prom - \
  -require svc_jobs_completed_total,svc_devices_done_total,svc_job_state,svc_job_devices_done

# --- Structured logs: daemon records + relayed worker records -------
grep -q '"msg":"job submitted"' "$workdir/svc.log"
grep -q '"msg":"job finished"' "$workdir/svc.log"
grep -q '"msg":"shard complete".*"job":"'"$id"'"' "$workdir/svc.log"
# A relayed worker record carries each key once: the daemon's shard attr
# replaces the one the worker logged (jq would keep only the last of two).
grep '"msg":"shard complete"' "$workdir/svc.log" > "$workdir/complete.log"
while IFS= read -r line; do
  dups=$(printf '%s\n' "$line" \
    | jq -r --stream 'select(length == 2 and (.[0] | length) == 1) | .[0][0]' | sort | uniq -d)
  if [ -n "$dups" ]; then
    echo "telemetry smoke: relayed record repeats key(s) $dups: $line" >&2
    exit 1
  fi
done < "$workdir/complete.log"

# --- Profiling listener ---------------------------------------------
curl -fsS "${debug}cmdline" > /dev/null

# --- Device-level fleet registry: palette + memo counters -----------
# The svc /metrics surface carries service families only; the device
# counters live in the per-run fleet registry, exported here in the
# same exposition format and held to the same parser.
"$workdir/ccdem-fleet" -devices 4 -duration 2 -seed 7 \
  -metrics-prom "$workdir/fleet.prom" > /dev/null
"$workdir/ccdem-obscheck" -prom "$workdir/fleet.prom" \
  -require fb_palette_tiles_total,fb_palette_promotions_total,app_memo_hits_total,app_memo_misses_total,frames_total

kill -TERM "$svc_pid"
wait "$svc_pid"
svc_pid=""

echo "telemetry smoke: metrics, trace, logs, and pprof all check out"
