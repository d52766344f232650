#!/usr/bin/env bash
# loc.sh — non-test Go lines per package, two counts: raw (wc -l) and code
# (neither blank nor a // comment line). Simplicity PRs report both in
# CHANGES.md.
#
#   scripts/loc.sh                      every package under cmd/ and internal/
#   scripts/loc.sh internal/sim cmd/spinsim ...   just these (plus their total)
#
# Run it from the repo root (or any checkout of it: paths are relative).
set -euo pipefail

if [ "$#" -eq 0 ]; then
  set -- $(find cmd internal -name '*.go' ! -name '*_test.go' -exec dirname {} + | sort -u)
fi

printf '%-28s %7s %7s\n' package raw code
total_raw=0 total_code=0
for pkg in "$@"; do
  files=$(find "$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go')
  [ -n "$files" ] || { printf '%-28s %7s %7s\n' "$pkg" - -; continue; }
  raw=$(cat $files | wc -l)
  code=$(cat $files | grep -cvE '^[[:space:]]*(//.*)?$' || true)
  printf '%-28s %7d %7d\n' "$pkg" "$raw" "$code"
  total_raw=$((total_raw + raw)) total_code=$((total_code + code))
done
printf '%-28s %7d %7d\n' total "$total_raw" "$total_code"
