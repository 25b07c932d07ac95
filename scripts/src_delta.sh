#!/bin/bash
# Net line change under src/ against a base revision: lines added, deleted
# and net, summed from `git diff --numstat` between the base and the working
# tree's tracked files.
#
#   scripts/src_delta.sh [base-ref]     (default HEAD~1)
set -eu
cd "$(dirname "$0")/.."
base="${1:-HEAD~1}"
if ! git rev-parse --verify --quiet "${base}^{commit}" > /dev/null; then
  echo "src_delta: unknown revision '${base}'" >&2
  exit 1
fi
git diff --numstat "$base" -- src | awk -v base="$base" '
  { added += $1; deleted += $2 }
  END {
    printf "src/ vs %s: +%d -%d net %+d lines\n", base, added, deleted,
           added - deleted
  }'
