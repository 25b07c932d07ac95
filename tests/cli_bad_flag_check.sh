#!/bin/sh
# CLI boundary check: a bad flag value must be rejected with exit status
# exactly 1 and a message naming the flag — never an abort or a signal
# (134/136/...).
#
# Usage:
#   cli_bad_flag_check.sh train TOOL FLAG [ARGS...]
#       Writes the demo dataset with `TOOL demo`, then runs `TOOL train` on
#       it with ARGS. Also asserts that no checkpoint was written to --out.
#   cli_bad_flag_check.sh serve SERVE FLAG [ARGS...]
#       Runs `SERVE ARGS`.
#
# FLAG is the flag name the error message must mention (e.g. --mfr).
set -u
mode=$1
binary=$2
flag=$3
shift 3

workdir=$(mktemp -d "${TMPDIR:-/tmp}/pafeat_cli.XXXXXX") || exit 2
trap 'rm -rf "$workdir"' EXIT

case "$mode" in
  train)
    if ! "$binary" demo --data "$workdir/d.csv" > /dev/null; then
      echo "FAIL: could not write the demo dataset"
      exit 1
    fi
    "$binary" train --data "$workdir/d.csv" \
      --labels demo_seen_0,demo_seen_1,demo_seen_2 \
      --out "$workdir/out.ckpt" "$@" > "$workdir/stdout" 2> "$workdir/stderr"
    status=$?
    ;;
  serve)
    "$binary" "$@" > "$workdir/stdout" 2> "$workdir/stderr"
    status=$?
    ;;
  *)
    echo "unknown mode '$mode'"
    exit 2
    ;;
esac

cat "$workdir/stderr"
if [ "$status" -ne 1 ]; then
  echo "FAIL: $mode $* exited with status $status, expected 1"
  exit 1
fi
if ! grep -q -e "$flag" "$workdir/stderr"; then
  echo "FAIL: the error message does not mention $flag"
  exit 1
fi
if [ -e "$workdir/out.ckpt" ]; then
  echo "FAIL: a checkpoint was written to --out"
  exit 1
fi
echo "ok: $mode $* rejected with status 1"
