#!/usr/bin/env sh
# shardsoak.sh — the distributed-campaign soak: a journaled tingcamp
# coordinator plus four workers over the same seeded world, with one
# process SIGKILL'd while the campaign runs:
#
#   scenario "worker" (default): worker w2 is killed while it holds a
#   lease and restarted against its own checkpoint, twice — exercising
#   lease expiry, reassignment, checkpoint replay, and appending to a
#   checkpoint that has already survived one crash (the second resume reads
#   what the first one wrote behind whatever the first kill left).
#
#   scenario "coordinator": the coordinator itself is killed while leases
#   are in flight and restarted against its write-ahead journal on the
#   same address — exercising journal recovery, the persisted fencing-epoch
#   watermark, and the workers' reconnection backoff.
#
# Gates:
#
#   1. the campaign completes (every shard submitted, coordinator exits 0 —
#      which also asserts zero lost pairs);
#   2. the merged matrix is bytewise identical to a single-process scan of
#      the same world (cmp, not a tolerance);
#   3. scenario-specific: "worker" requires at least one lease
#      reassignment; "coordinator" requires state.json to report the
#      campaign was served by a recovered coordinator.
#
# Usage: shardsoak.sh [relays] [shards] [seed] [worker|coordinator]
#
# Artifacts (state.json, campaign.journal, worker checkpoints, logs) land
# in TING_SOAK_DIR if set (CI uploads it on failure), else a mktemp dir
# removed on success.
set -eu

RELAYS="${1:-20}"
SHARDS="${2:-16}"
SEED="${3:-97}"
SCENARIO="${4:-worker}"
case "$SCENARIO" in
  worker|coordinator) ;;
  *) echo "unknown scenario $SCENARIO (want worker or coordinator)" >&2; exit 2 ;;
esac

if [ -n "${TING_SOAK_DIR:-}" ]; then
  workdir="$TING_SOAK_DIR"
  mkdir -p "$workdir"
  cleanup_dir=""
else
  workdir="$(mktemp -d)"
  cleanup_dir="$workdir"
fi
pids=""
cleanup() {
  for p in $pids; do kill "$p" 2>/dev/null || true; done
  # Not `[ -n … ] && rm`: with TING_SOAK_DIR set that test fails, and dash
  # makes the trap's last status the script's.
  [ -z "$cleanup_dir" ] || rm -rf "$cleanup_dir"
}
trap cleanup EXIT

echo "building tingcamp…"
go build -o "$workdir/tingcamp" ./cmd/tingcamp

common="-model $RELAYS -seed $SEED -samples 3"

# Runs in the main shell (no command substitution): the coordinator must
# stay this shell's child so `wait` can collect its exit status.
start_coordinator() { # listen-addr
  # shellcheck disable=SC2086
  "$workdir/tingcamp" -coordinator $common -shards "$SHARDS" \
    -lease-ttl 2s -listen "$1" -addr-file "$workdir/camp.addr" \
    -journal "$workdir/campaign.journal" \
    -out "$workdir/merged.matrix" -state "$workdir/state.json" \
    >> "$workdir/coordinator.log" 2>&1 &
  coord_pid=$!
}

start_coordinator 127.0.0.1:0
pids="$coord_pid"

i=0
while [ ! -f "$workdir/camp.addr" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "coordinator never wrote its addr-file; log:" >&2
    cat "$workdir/coordinator.log" >&2
    exit 1
  fi
  sleep 0.1
done
addr="$(sed -n 's/^camp=//p' "$workdir/camp.addr")"
echo "coordinator at $addr"

start_worker() { # name extra-args…
  name="$1"; shift
  # shellcheck disable=SC2086
  "$workdir/tingcamp" -worker $common -name "$name" -addr "$addr" \
    -checkpoint "$workdir/$name.ckpt" -scan-workers 2 \
    -unreachable-grace 60s "$@" \
    >> "$workdir/$name.log" 2>&1 &
  echo $!
}

# Workers 1, 3, 4 run normally, pausing between leases so shards are still
# pending when w2 comes back; worker 2 measures slowly (-pair-delay
# stretches lease hold time without changing any value), so the SIGKILLs
# below reliably land while leases are in flight.
w2_pid=$(start_worker w2 -pair-delay 250ms); pids="$pids $w2_pid"
w1_pid=$(start_worker w1 -dally 500ms);  pids="$pids $w1_pid"
w3_pid=$(start_worker w3 -dally 500ms);  pids="$pids $w3_pid"
w4_pid=$(start_worker w4 -dally 500ms);  pids="$pids $w4_pid"

if [ "$SCENARIO" = "worker" ]; then
  # w2's shard takes seconds at 250ms per circuit series; a kill 1.2s after
  # it starts lands while it holds that lease with a pair or two in its
  # checkpoint. Each restart is against w2's own checkpoint — the
  # crash-resume path: whatever it measured before the kill replays instead
  # of re-measuring. The first restart is slow too, so the second kill also
  # lands mid-lease.
  for restart_args in "-pair-delay 250ms" "-dally 100ms"; do
    sleep 1.2
    echo "SIGKILL worker w2 (pid $w2_pid) mid-campaign"
    kill -9 "$w2_pid" 2>/dev/null || true
    sleep 0.5
    # shellcheck disable=SC2086
    w2_pid=$(start_worker w2 $restart_args); pids="$pids $w2_pid"
    echo "restarted w2 (pid $w2_pid) from its checkpoint"
  done
else
  # Kill the coordinator the moment its state snapshot shows a lease out.
  i=0
  while ! grep -q '"state": "leased"' "$workdir/state.json" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
      echo "no lease ever went out; coordinator log:" >&2
      cat "$workdir/coordinator.log" >&2
      exit 1
    fi
    sleep 0.1
  done
  echo "SIGKILL coordinator (pid $coord_pid) mid-campaign"
  kill -9 "$coord_pid" 2>/dev/null || true
  sleep 1

  # Restart in place: same address (workers are mid-backoff against it),
  # same journal. The recovered coordinator resumes the epoch watermark
  # strictly above every pre-crash grant.
  start_coordinator "$addr"
  pids="$pids $coord_pid"
  echo "restarted coordinator (pid $coord_pid) from its journal"
fi

# The coordinator exits once every shard is merged (0) or pairs were lost (1).
i=0
while kill -0 "$coord_pid" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 600 ]; then
    echo "campaign did not finish within 60s; state:" >&2
    cat "$workdir/state.json" >&2 2>/dev/null || true
    cat "$workdir/coordinator.log" >&2
    exit 1
  fi
  sleep 0.1
done
status=0
wait "$coord_pid" || status=$?
if [ "$status" -ne 0 ]; then
  echo "coordinator exited $status (lost pairs or error); log:" >&2
  cat "$workdir/coordinator.log" >&2
  exit "$status"
fi
cat "$workdir/coordinator.log"

if [ "$SCENARIO" = "worker" ]; then
  # The killed worker must actually have cost a lease: a soak where the
  # kill landed between leases exercised nothing.
  if grep -q '"reassigned_leases": 0' "$workdir/state.json"; then
    echo "no lease was reassigned: the SIGKILL missed the lease window" >&2
    exit 1
  fi
else
  # The campaign must have been finished by a *recovered* coordinator:
  # state.json is written by the post-restart process, whose snapshot
  # reports recoveries >= 1.
  if ! grep -Eq '"recoveries": [1-9]' "$workdir/state.json"; then
    echo "final state does not show a journal recovery:" >&2
    cat "$workdir/state.json" >&2
    exit 1
  fi
fi

# The determinism gate: one process, same world, byte-for-byte equality —
# a coordinator crash and recovery must not move a single byte.
# shellcheck disable=SC2086
"$workdir/tingcamp" -single $common -scan-workers 4 -out "$workdir/single.matrix" \
  > "$workdir/single.log" 2>&1
if ! cmp "$workdir/merged.matrix" "$workdir/single.matrix"; then
  echo "merged matrix differs from single-process scan" >&2
  exit 1
fi
echo "shard soak ($SCENARIO) passed: merged matrix bytewise equal to single-process scan"
