#!/bin/sh
# expect_exit.sh <status> <text> <command> [args...]
# Runs the command and passes iff it exits with <status> and its combined
# stdout/stderr contains <text> (a fixed string).
want=$1
text=$2
shift 2
out=$("$@" 2>&1)
got=$?
printf '%s\n' "$out"
if [ "$got" -ne "$want" ]; then
  echo "expect_exit: exit status $got, expected $want"
  exit 1
fi
if ! printf '%s\n' "$out" | grep -qF -- "$text"; then
  echo "expect_exit: output lacks: $text"
  exit 1
fi
