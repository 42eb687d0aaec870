#!/bin/sh
# Boot a backgrounded rpb server, wait for its socket, run a drive
# command against it, then drain the server with SIGTERM and propagate
# the worst exit status.  The serve-smoke make target boots and drains
# its server through it.
#
# Usage: with_server.sh SOCKET 'SERVER_EXTRA_ARGS' 'DRIVE_SHELL'
#
#   SOCKET            Unix-domain socket path (stale files are removed)
#   SERVER_EXTRA_ARGS extra `rpb serve` flags, word-split (no spaces
#                     inside a single flag value)
#   DRIVE_SHELL       shell command string run once the socket is live
#
# The rpb binary defaults to the prebuilt _build path (so concurrent
# processes never contend on the dune lock); override with $RPB.
set -u

RPB=${RPB:-_build/default/bin/rpb.exe}

if [ $# -ne 3 ]; then
  echo "usage: $0 SOCKET 'SERVER_EXTRA_ARGS' 'DRIVE_SHELL'" >&2
  exit 2
fi

sock=$1
server_args=$2
drive=$3

rm -f "$sock"
status=0

# shellcheck disable=SC2086 # word splitting of the server flags is the API
"$RPB" serve --socket "$sock" $server_args &
server=$!

i=0
until test -S "$sock" || test $i -ge 50; do
  sleep 0.1
  i=$((i + 1))
done
if ! test -S "$sock"; then
  echo "with_server: server never bound $sock" >&2
  kill -TERM "$server" 2>/dev/null
  wait "$server" 2>/dev/null
  exit 1
fi

RPB="$RPB" SOCK="$sock" sh -c "$drive" || status=$?

kill -TERM "$server" 2>/dev/null
wait "$server" || status=$?

exit $status
