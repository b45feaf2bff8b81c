#!/bin/sh
# Runs msd_serve with malformed and out-of-range numeric flags. Each run
# must print usage and exit 2; none may reach a constructor's MSD_CHECK,
# which aborts with SIGABRT (exit 134).
#
#   sh bad_flags_test.sh <path to msd_serve>
bin="$1"
status=0
for flags in "--workers abc" "--workers 0" "--max-delay-us -5"; do
  # $flags is split on purpose: flag and value are two arguments.
  err=$("$bin" unused.msdckpt $flags 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 2 ] || ! printf '%s\n' "$err" | grep -q '^usage:'; then
    echo "msd_serve $flags: exit $rc, want 2 and usage; stderr:" >&2
    printf '%s\n' "$err" >&2
    status=1
  fi
done
exit $status
