#!/usr/bin/env sh
# deadexports.sh — the crude grep behind ROADMAP's deletion sweep, kept so
# the list can only shrink: every exported func or method defined in a
# non-test file under internal/ must be named somewhere else in the
# repository's non-test Go (cmd/, internal/, bench/, examples/) or in the
# root bench_test.go, or be listed in scripts/deadexports.allow with the
# reason it stays.
#
# "Named" is a whole-word match on the bare name, on any line that is not
# the definition itself and not a // comment line. That is conservative on
# purpose: a method called Close or String is never flagged, whoever calls
# it, and a name flagged here really has no caller but tests. It cannot see
# the reverse — an export used only by dead code — and does not try. Unwrap
# is skipped: errors.Is and errors.As are its callers.
#
# Usage: scripts/deadexports.sh            (from the repository root)
# Exit 0 if every flagged name is in the allowlist, 1 otherwise. A line in
# the allowlist that no longer matches anything is also an error.
set -eu

allow="$(dirname "$0")/deadexports.allow"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Everything a reference may live in, one "file:line:text" per line, minus
# comment lines.
{
  find cmd internal bench examples -name '*.go' ! -name '*_test.go' -print
  echo bench_test.go
} | xargs grep -n '' /dev/null | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' > "$tmp/src"

# Definitions: "pkg.Func" or "pkg.Type.Method", with the bare name first.
grep -E '^internal/[^:]+:[0-9]+:func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*[(\[]' "$tmp/src" |
  sed -E 's|^internal/([^:]+)/[^/:]+:[0-9]+:func (\([^)]*[ *]([A-Za-z0-9_]+)(\[[^]]*\])?\) )?([A-Z][A-Za-z0-9_]*).*|\5 \1.\3.\5|; s|\.\.|.|' |
  sort -u > "$tmp/defs"

# A name is alive if it appears as a word on a line that does not define it.
cut -d' ' -f1 "$tmp/defs" | sort -u | grep -vx Unwrap | while read -r name; do
  if ! grep -wF -- "$name" "$tmp/src" |
    grep -qvE "^[^:]+:[0-9]+:func (\([^)]*\) )?$name[(\[]"; then
    grep -E "^$name " "$tmp/defs" | cut -d' ' -f2
  fi
done | sort > "$tmp/dead"

grep -vE '^[[:space:]]*(#|$)' "$allow" | awk '{print $1}' | sort > "$tmp/allowed"

status=0
for name in $(comm -23 "$tmp/dead" "$tmp/allowed"); do
  echo "deadexports: $name has no caller outside tests: give it one, unexport it, delete it, or list it in $allow with the reason" >&2
  status=1
done
for name in $(comm -13 "$tmp/dead" "$tmp/allowed"); do
  echo "deadexports: $name is in $allow but is no longer flagged: drop the line" >&2
  status=1
done
[ "$status" -eq 0 ] && echo "deadexports: ok ($(wc -l < "$tmp/dead" | tr -d ' ') allowlisted)"
exit "$status"
