#!/usr/bin/env bash
# End-to-end fleet campaign with real SIGKILLs on BOTH sides of the wire:
#
#   1. start drivefi_campaignd and three worker processes,
#   2. kill -9 the COORDINATOR once a few runs are durably in the master
#      store -- in-flight leases die with it, workers lose their sockets,
#   3. restart the daemon with --resume on the SAME port; workers must
#      reconnect with backoff, re-hello, respool their local stores, and
#      carry on,
#   4. kill -9 one WORKER after the restart has made progress (the classic
#      lease-steal path from the pre-chaos harness),
#   5. let the survivors finish and require the merged campaign JSONL to be
#      byte-identical (wall_seconds scrubbed) to a single-process reference
#      run of the same campaign.
#
# Also exercises the observability surface end to end: the resumed daemon
# runs with --metrics-out and --trace-out, a `drivefi_campaign status`
# probe queries the live fleet, surviving workers' telemetry must show
# nonzero fleet.reconnects, the resumed daemon's telemetry must show no
# golden simulation (a random campaign's coordinator builds only the
# manifest), and both telemetry files must validate as JSON (they are
# copied into BUILD_DIR for CI artifact upload).
#
#   scripts/fleet_e2e.sh BUILD_DIR [RUNS]
set -euo pipefail

BUILD_DIR=${1:?usage: fleet_e2e.sh BUILD_DIR [RUNS]}
RUNS=${2:-36}
CAMPAIGN_FLAGS=(--runs "$RUNS" --scenarios 2 --seed 1234 --threads 1)

WORK=$(mktemp -d "${TMPDIR:-/tmp}/drivefi_fleet_e2e.XXXXXX")
COORD_PID=""
WORKER_PIDS=()
cleanup() {
  [ -n "$COORD_PID" ] && kill "$COORD_PID" 2>/dev/null || true
  for pid in "${WORKER_PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

scrub() {
  # wall_seconds is always a record's LAST field; dropping it leaves every
  # deterministic byte in place.
  sed -E 's/,"wall_seconds":[^}]*//' "$1"
}

echo "== single-process reference ($RUNS runs) =="
"$BUILD_DIR/drivefi_campaign" run "${CAMPAIGN_FLAGS[@]}" \
  --store "$WORK/ref.store.jsonl" --overwrite > /dev/null
"$BUILD_DIR/drivefi_campaign" merge --jsonl "$WORK/ref.jsonl" \
  "$WORK/ref.store.jsonl" > /dev/null

echo "== coordinator (first sitting) =="
"$BUILD_DIR/drivefi_campaignd" "${CAMPAIGN_FLAGS[@]}" \
  --listen 127.0.0.1:0 --port-file "$WORK/port" \
  --store "$WORK/master.jsonl" --overwrite \
  --lease-runs 4 --heartbeat-timeout 3 \
  --quiet > "$WORK/coordinator1.log" 2>&1 &
COORD_PID=$!

for _ in $(seq 1 100); do
  [ -s "$WORK/port" ] && break
  kill -0 "$COORD_PID" 2>/dev/null || {
    echo "FAIL: coordinator died during startup"; cat "$WORK/coordinator1.log"; exit 1; }
  sleep 0.2
done
PORT=$(cat "$WORK/port")
echo "coordinator on port $PORT"

echo "== status probe =="
# The live-fleet introspection path: a status query needs no campaign
# knowledge and must answer before any worker has connected.
"$BUILD_DIR/drivefi_campaign" status --connect "127.0.0.1:$PORT" \
  | tee "$WORK/status.txt"
grep -q "campaign: 0/$RUNS runs stored" "$WORK/status.txt" || {
  echo "FAIL: status probe did not report the fresh campaign"; exit 1; }

echo "== 3 workers (reconnect-enabled) =="
# The backoff window must comfortably cover the coordinator outage below:
# 150 attempts capped at 2 s apiece is minutes of patience.
for w in 1 2 3; do
  "$BUILD_DIR/drivefi_campaign" worker --connect "127.0.0.1:$PORT" \
    "${CAMPAIGN_FLAGS[@]}" --name "w$w" --store "$WORK/w$w.local.jsonl" \
    --reconnect-max-attempts 150 --reconnect-base-delay 0.1 \
    > "$WORK/w$w.log" 2>&1 &
  WORKER_PIDS+=($!)
done

# Wait until the master store holds a few durable run records (one manifest
# line + >=3 records), then SIGKILL the coordinator mid-campaign.
master_lines() {
  [ -f "$WORK/master.jsonl" ] && wc -l < "$WORK/master.jsonl" || echo 0
}
for _ in $(seq 1 600); do
  [ "$(master_lines)" -ge 4 ] && break
  kill -0 "$COORD_PID" 2>/dev/null || break
  sleep 0.05
done
LINES_AT_KILL=$(master_lines)
COORD_KILLED=0
if kill -9 "$COORD_PID" 2>/dev/null; then
  COORD_KILLED=1
  echo "SIGKILLed coordinator (pid $COORD_PID) after $((LINES_AT_KILL - 1)) records"
else
  echo "WARN: coordinator finished before the kill landed; resume is degenerate"
fi
wait "$COORD_PID" 2>/dev/null || true
COORD_PID=""

echo "== coordinator resumed (second sitting) =="
# Same port, --resume: state is rebuilt from the master store alone. Not
# --quiet, so the "resuming" preamble lands in the log for the assertion
# below. Telemetry is attached to this sitting (the one that exits
# cleanly).
"$BUILD_DIR/drivefi_campaignd" "${CAMPAIGN_FLAGS[@]}" \
  --listen "127.0.0.1:$PORT" \
  --store "$WORK/master.jsonl" --resume \
  --lease-runs 4 --heartbeat-timeout 3 \
  --metrics-out "$WORK/fleet.metrics.jsonl" --metrics-interval 0.2 \
  --trace-out "$WORK/fleet.trace.json" \
  --jsonl "$WORK/fleet.jsonl" > "$WORK/coordinator2.log" 2>&1 &
COORD_PID=$!

# Once the resumed sitting has stored at least one NEW record, SIGKILL
# worker 1 -- its lease must be stolen and re-executed by the survivors.
for _ in $(seq 1 600); do
  [ "$(master_lines)" -gt "$LINES_AT_KILL" ] && break
  kill -0 "$COORD_PID" 2>/dev/null || break
  sleep 0.05
done
VICTIM=${WORKER_PIDS[0]}
if kill -9 "$VICTIM" 2>/dev/null; then
  echo "SIGKILLed worker 1 (pid $VICTIM) after the resumed sitting made progress"
else
  echo "WARN: worker 1 exited before the kill landed; campaign still valid"
fi

echo "== waiting for the campaign =="
wait "$COORD_PID" || {
  echo "FAIL: resumed coordinator exited nonzero"; cat "$WORK/coordinator2.log"; exit 1; }
COORD_PID=""
wait "$VICTIM" 2>/dev/null || true
for pid in "${WORKER_PIDS[@]:1}"; do
  wait "$pid" || { echo "FAIL: a surviving worker exited nonzero"; exit 1; }
done
WORKER_PIDS=()

echo "== byte-identity =="
if ! diff <(scrub "$WORK/ref.jsonl") <(scrub "$WORK/fleet.jsonl"); then
  echo "FAIL: fleet campaign JSONL diverged from the single-process reference"
  exit 1
fi
grep -E "fleet campaign complete" "$WORK/coordinator2.log" || true
echo "PASS: fleet output byte-identical to the single-process campaign"

echo "== crash-recovery evidence =="
grep -E "^resuming " "$WORK/coordinator2.log" || {
  echo "FAIL: resumed coordinator did not report resuming from the store"
  cat "$WORK/coordinator2.log"; exit 1; }
if [ "$COORD_KILLED" -eq 1 ]; then
  # Every worker lost its socket when the coordinator died; the survivors'
  # telemetry must have counted the reconnects.
  grep -hE '"fleet.reconnects":[1-9]' "$WORK/w2.log" "$WORK/w3.log" || {
    echo "FAIL: no surviving worker reported a reconnect"
    tail -5 "$WORK/w2.log" "$WORK/w3.log"; exit 1; }
  echo "PASS: coordinator crash recovered; workers reconnected"
fi

echo "== telemetry artifacts =="
STORED=$(sed -nE 's/^fleet campaign complete: ([0-9]+) runs stored.*/\1/p' \
  "$WORK/coordinator2.log")
python3 - "$WORK/fleet.trace.json" "${STORED:?}" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
# The resumed sitting traces the records it stores. When the first sitting
# finished before its kill landed, the second resumes a complete store and
# has nothing to trace: a random campaign's coordinator simulates nothing.
assert events or int(sys.argv[2]) == 0, "trace file holds no events"
for event in events:
    assert event["ph"] == "X" and event["cat"] == "drivefi", event
print(f"trace OK: {len(events)} complete events")
PYEOF
python3 - "$WORK/fleet.metrics.jsonl" "$RUNS" <<'PYEOF'
import json, sys
snapshots = [json.loads(line) for line in open(sys.argv[1])]
assert snapshots, "no metrics snapshots written"
for i, snap in enumerate(snapshots):
    assert snap["type"] == "metrics" and snap["seq"] == i, snap
assert snapshots[-1]["fleet.completed_runs"] == int(sys.argv[2]), snapshots[-1]
print(f"metrics OK: {len(snapshots)} snapshots, final fleet.completed_runs "
      f"= {snapshots[-1]['fleet.completed_runs']:g}")
PYEOF
# A telemetry summary line must land on the daemon's stderr at exit, and a
# random campaign's coordinator builds only the manifest: its telemetry
# must count no golden simulation.
python3 - "$WORK/coordinator2.log" <<'PYEOF'
import json, sys
marker = '{"type":"telemetry"'
lines = [line[line.index(marker):] for line in open(sys.argv[1]) if marker in line]
assert lines, "no telemetry summary line in the coordinator log"
golden = json.loads(lines[-1]).get("experiment.golden_runs", 0)
assert golden == 0, f"the coordinator ran {golden:g} golden simulations"
print("coordinator telemetry OK: no golden simulation")
PYEOF
cp "$WORK/fleet.metrics.jsonl" "$WORK/fleet.trace.json" "$BUILD_DIR/"
echo "PASS: telemetry artifacts validate; copied into $BUILD_DIR"
