#!/usr/bin/env bash
# Usage: cli_errors.sh RIOTSHARE_EXE
# Each malformed invocation below must exit 124 (a typed CLI error) and print
# the expected message, never die with an uncaught exception (exit 125).
exe=$1
case $exe in */*) ;; *) exe=./$exe ;; esac
status=0

expect_usage_error() {
  local want=$1
  shift
  local out code
  out=$("$exe" "$@" 2>&1)
  code=$?
  if [ "$code" -ne 124 ]; then
    echo "riotshare $*: exit $code, want 124: $out"
    status=1
  elif [[ "$out" != *"$want"* ]]; then
    echo "riotshare $*: message lacks '$want': $out"
    status=1
  fi
}

expect_usage_error "unknown trigger" run -p add_mul --failpoints x=bogus
expect_usage_error "entry without '='" run -p add_mul --failpoints bogus
expect_usage_error "option '--max-size'" optimize -p add_mul --max-size=-1
expect_usage_error "size of array A overflows" optimize -p add_mul \
  --block A:4611686018427387903x2:4x4 --block B:2x2:4x4

exit $status
