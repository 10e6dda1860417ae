#!/usr/bin/env sh
# servesmoke.sh — the serving-plane smoke test: boot tingd in self-contained
# model mode with a fast sweep, hammer it with tingload over the binary
# protocol, and assert it sustains a lookup rate while epochs churn
# underneath, with zero errors and zero 5xx (tingload exits nonzero on any);
# then scrape tingd's debug /metrics and require an OpenMetrics document
# that counted the lookups (needs curl).
#
# Usage: servesmoke.sh [min_rate] [min_epochs] [duration]
#
# The default floor is a tenth of what this script records on two loopback
# cores (~10^7 lookups/sec; the acceptance target is 10^5): room for a
# shared CI runner, none for a real serving-plane regression — a lock on
# the read path, a stall during epoch swap.
set -eu

MIN_RATE="${1:-1000000}"
MIN_EPOCHS="${2:-2}"
DURATION="${3:-5s}"

workdir="$(mktemp -d)"
trap 'kill "$tingd_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "building tingd and tingload…"
go build -o "$workdir/tingd" ./cmd/tingd
go build -o "$workdir/tingload" ./cmd/tingload

"$workdir/tingd" -model 16 -http 127.0.0.1:0 -bin 127.0.0.1:0 \
  -debug-addr 127.0.0.1:0 -addr-file "$workdir/tingd.addr" \
  -max-age 200ms -sweep-interval 100ms -samples 3 -quiet \
  > "$workdir/tingd.log" 2>&1 &
tingd_pid=$!

# The addr-file appears (atomically) once every surface is bound.
i=0
while [ ! -f "$workdir/tingd.addr" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "tingd never wrote its addr-file; log:" >&2
    cat "$workdir/tingd.log" >&2
    exit 1
  fi
  sleep 0.1
done
cat "$workdir/tingd.addr"

status=0
"$workdir/tingload" -addr-file "$workdir/tingd.addr" -duration "$DURATION" \
  -conns 4 -batch 512 -min-rate "$MIN_RATE" -min-epochs "$MIN_EPOCHS" || status=$?

# The HTTP surface must answer consistently too (much slower by design;
# no rate floor, but zero errors and live epochs still hold).
http_addr="$(sed -n 's/^http=//p' "$workdir/tingd.addr")"
"$workdir/tingload" -http "$http_addr" -duration 2s -conns 2 \
  -min-epochs "$MIN_EPOCHS" || status=$?

# The debug surface's /metrics is an OpenMetrics document that saw the load.
debug_addr="$(sed -n 's/^debug=//p' "$workdir/tingd.addr")"
if curl -sf "http://$debug_addr/metrics" > "$workdir/metrics"; then
  lookups="$(sed -n 's/^serve_lookups_total //p' "$workdir/metrics")"
  if [ "$(tail -n 1 "$workdir/metrics")" != "# EOF" ] ||
    ! grep -qx '# TYPE serve_lookups counter' "$workdir/metrics" ||
    [ "${lookups:-0}" -le 0 ] ||
    ! grep -qx '# TYPE serve_bin_ms summary' "$workdir/metrics"; then
    echo "debug /metrics is not the OpenMetrics document of a loaded tingd:" >&2
    cat "$workdir/metrics" >&2
    status=1
  fi
else
  echo "debug /metrics at $debug_addr did not answer" >&2
  status=1
fi

if [ "$status" -ne 0 ]; then
  echo "serve smoke failed; tingd log:" >&2
  cat "$workdir/tingd.log" >&2
fi
exit "$status"
