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

# Unscaled data: 50,000 rows of 8 features, the first row 10^6 in every
# feature. Standardized on the training split (the row lands in it at seed
# 42), that row reaches |z| ~ sqrt(40,000) = 200, so a party holding 4 of
# the features has partial distances near 4 * 200^2 = 160,000: past the
# ~131,000 that a two-party CKKS sum holds at one 59-bit prime and scale
# 2^40. The run must stop with OutOfRange, not rank wrapped sums.
awk 'BEGIN {
  print "f1,f2,f3,f4,f5,f6,f7,f8,label"
  print "1e6,1e6,1e6,1e6,1e6,1e6,1e6,1e6,1"
  for (i = 1; i < 50000; i++) {
    line = ""
    for (j = 0; j < 8; j++) line = line ((i * 7 + j * 13) % 17) ","
    print line (i % 2)
  }
}' >cli_exit_codes.csv
expect_exit_1 run --csv=cli_exit_codes.csv --method=VFPS-SM-BASE \
  --backend=ckks --participants=2 --select=1 --queries=2 --seed=42
rm -f cli_exit_codes.err cli_exit_codes.csv
exit "$FAILED"
