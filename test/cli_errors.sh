#!/bin/sh
# CLI error-path contract: each failure mode exits with its documented
# distinct code and a one-line diagnostic on stderr — never a backtrace.
#
# Usage: cli_errors.sh path/to/tinyvm_cli.exe
set -u

CLI=$1
fails=0

# expect NAME EXPECTED_CODE CMD...
expect() {
  name=$1; want=$2; shift 2
  err=$("$@" 2>&1 >/dev/null)
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL $name: expected exit $want, got $got" >&2
    echo "     stderr: $err" >&2
    fails=$((fails + 1))
    return
  fi
  case $err in
    *"Raised at"* | *"Raised by"* | *"Called from"* | *Fatal\ error* | *Stack\ overflow*)
      echo "FAIL $name: backtrace leaked to stderr:" >&2
      echo "$err" >&2
      fails=$((fails + 1))
      return ;;
  esac
  if [ "$(printf '%s' "$err" | grep -c .)" -gt 1 ]; then
    echo "FAIL $name: diagnostic is not one line:" >&2
    echo "$err" >&2
    fails=$((fails + 1))
    return
  fi
  echo "ok   $name (exit $got)"
}

# expect_usage NAME CMD...: a command-line usage error, which exits 124 and
# names the unknown value in a (multi-line) usage message.
expect_usage() {
  name=$1; shift
  err=$("$@" 2>&1 >/dev/null)
  got=$?
  case "$got:$err" in
    124:*unknown*) echo "ok   $name (exit $got)" ;;
    *)
      echo "FAIL $name: expected a usage error (exit 124), got $got" >&2
      echo "     stderr: $err" >&2
      fails=$((fails + 1)) ;;
  esac
}

# Discover a feasible transition point dynamically so the script never
# goes stale when the pipeline changes ("#NN -> #MM" with a landing).
AT=$("$CLI" osr-points bzip2 | sed -n 's/^ *#\([0-9][0-9]*\) *-> *#[0-9].*/\1/p' | head -1)
if [ -z "$AT" ]; then
  echo "FAIL: no feasible OSR point found for bzip2" >&2
  exit 1
fi
echo "using feasible point #$AT"

# The happy path still works (and exits 0).
expect "osr-run clean"          0 "$CLI" osr-run bzip2 --at "$AT"

# Injected faults surface as typed errors with their documented codes.
expect "guard trap -> 12"      12 "$CLI" osr-run bzip2 --at "$AT" --inject guard-trap
expect "chi trap -> 13"        13 "$CLI" osr-run bzip2 --at "$AT" --inject chi-trap

# Fuel exhaustion is a typed error on both entry points.
expect "run --fuel -> 14"      14 "$CLI" run bzip2 --fuel 10
expect "osr-run --fuel -> 14"  14 "$CLI" osr-run bzip2 --at "$AT" --fuel 10

# A nonexistent program point is a typed error, not an abort() or a 125.
expect "bad --at -> 16"        16 "$CLI" osr-run bzip2 --at 999999

# An unknown name is a usage error (exit 124), for kernels and study groups alike.
expect_usage "unknown kernel -> 124" "$CLI" run nosuchkernel
expect_usage "unknown study -> 124"  "$CLI" debug-study nosuchstudy

# A bad IR file is a one-line diagnostic with exit 19: a syntax error
# names FILE:LINE, non-SSA input its first verifier error.
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
printf 'func @f(%%x) {\nentry:\n  %%y = frob %%x, 1\n  ret %%y\n}\n' > "$TMP/syntax.ir"
printf 'func @f(%%x) {\nentry:\n  %%y = add %%z, 1\n  ret %%y\n}\n' > "$TMP/nonssa.ir"
expect "opt syntax error -> 19" 19 "$CLI" opt "$TMP/syntax.ir"
expect "opt non-SSA -> 19"      19 "$CLI" opt "$TMP/nonssa.ir"

# Aborted-but-recovered runs (misfire/suppress keep the source alive).
expect "suppress recovers"      0 "$CLI" osr-run bzip2 --at "$AT" --inject suppress

if [ "$fails" -ne 0 ]; then
  echo "$fails CLI error-path check(s) failed" >&2
  exit 1
fi
echo "all CLI error-path checks passed"
