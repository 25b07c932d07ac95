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
#   cli_bad_flag_check.sh checkpoint BINARY FLAG [ARGS...]
#       Writes a hostile 46-byte v2 checkpoint (input dim 2^30 + 1, one trunk
#       layer of width 2^30, one parameter present) and runs `BINARY ARGS`
#       with every @CKPT@ argument replaced by its path.
#
# FLAG is what the error message must mention: the flag name (e.g. --mfr),
# in checkpoint mode the checkpoint's file name, or a phrase of the reason.
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
  checkpoint)
    ckpt="$workdir/$flag"
    # magic "CFAP", version 2, input dim 0x40000001, 2 actions, no rescale
    # layer, 1 trunk layer of width 0x40000000, fp32, ratio 0.5, 1 param.
    printf '\103\106\101\120\002\000\000\000\001\000\000\100' > "$ckpt"
    printf '\002\000\000\000\000\001\000\000\000\000\000\000\100' >> "$ckpt"
    printf '\000\000\000\000\000\000\000\340\077' >> "$ckpt"
    printf '\001\000\000\000\000\000\000\000\000\000\000\000' >> "$ckpt"
    for arg; do
      shift
      [ "$arg" = @CKPT@ ] && arg=$ckpt
      set -- "$@" "$arg"
    done
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
