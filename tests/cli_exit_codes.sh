#!/bin/sh
# vfps_cli reports a typed error on stderr and exits with code 1; it must not
# abort (SIGABRT and a core file). Usage: cli_exit_codes.sh <vfps_cli>
set -u
CLI="$1"
FAILED=0

expect_exit_1() {
  "$CLI" "$@" >/dev/null 2>cli_exit_codes.err
  rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL: vfps_cli $* exited with $rc, want 1" >&2
    cat cli_exit_codes.err >&2
    FAILED=1
  elif ! grep -q '^vfps_cli: ' cli_exit_codes.err; then
    echo "FAIL: vfps_cli $* printed no error on stderr" >&2
    FAILED=1
  else
    echo "ok: vfps_cli $* -> 1: $(cat cli_exit_codes.err)"
  fi
}

expect_exit_1 run --resume-from=no-such-dir/missing.ckpt --scale=0.1 --queries=4
expect_exit_1 run --metrics-interval=-1
expect_exit_1 run --metrics-interval=0.5
expect_exit_1 sweep --threads=-3
rm -f cli_exit_codes.err
exit "$FAILED"
