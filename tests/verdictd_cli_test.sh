#!/usr/bin/env bash
# Drives the verdictd daemon end-to-end through the real binaries: cold
# verification over the Unix socket, warm (cached) re-verification with the
# client-visible cache marker, graceful SIGTERM drain, and the persistent
# segment carrying proved verdicts across a restart and across a crash.
#
# Usage: verdictd_cli_test.sh <path-to-verdictd> <path-to-verdictc> \
#                             <examples/models dir>
set -euo pipefail

VERDICTD="$1"
VERDICTC="$2"
MODELS="$3"
TMP="$(mktemp -d "${TMPDIR:-/tmp}/verdictd_cli.XXXXXX")"
SOCK="$TMP/verdictd.sock"
SEGMENT="$TMP/verdicts.seg"
DAEMON_PID=""

cleanup() {
  if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -KILL "$DAEMON_PID" 2>/dev/null || true
  fi
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $1" >&2
  for f in "$TMP"/*.txt; do
    [ -f "$f" ] || continue
    echo "---- $f ----" >&2
    cat "$f" >&2
  done
  exit 1
}

expect_exit() {
  local want="$1" got="$2" what="$3"
  [ "$got" -eq "$want" ] || fail "$what: expected exit $want, got $got"
}

# No socket polling here: the first client call after each start uses
# --connect-timeout, which retries with backoff while the daemon binds —
# that's the supported replacement for sleep-and-hope startup loops.
start_daemon() {
  "$VERDICTD" --socket "$SOCK" --segment-file "$SEGMENT" --jobs 2 \
    > "$TMP/daemon.txt" 2>&1 &
  DAEMON_PID=$!
}

stop_pid() {
  kill -TERM "$1"
  for _ in $(seq 1 200); do
    kill -0 "$1" 2>/dev/null || return 0
    sleep 0.05
  done
  fail "process $1 did not exit after SIGTERM"
}

stop_daemon() {
  stop_pid "$DAEMON_PID"
  DAEMON_PID=""
}

# --version prints build identity and exits 0.
rc=0
"$VERDICTD" --version > "$TMP/version.txt" 2>&1 || rc=$?
expect_exit 0 "$rc" "verdictd --version"
grep -q "^verdictd " "$TMP/version.txt" || fail "--version must name the tool"

# A missing socket path is a usage error.
rc=0
"$VERDICTD" > /dev/null 2>&1 || rc=$?
expect_exit 2 "$rc" "verdictd without --socket"

# Connecting to a daemon that is not running is an error, not a hang.
rc=0
"$VERDICTC" "$MODELS/autoscaler.vml" --connect "$SOCK" > "$TMP/noconn.txt" 2>&1 || rc=$?
expect_exit 2 "$rc" "verdictc --connect with no daemon"

start_daemon

# Cold run through the daemon: verdicts and exit code match the local run.
# --connect-timeout covers the daemon still starting up (no sleep above).
rc=0
"$VERDICTC" "$MODELS/autoscaler.vml" --connect "$SOCK" --connect-timeout 10 \
  --engine pdr > "$TMP/cold.txt" 2>&1 || rc=$?
expect_exit 0 "$rc" "cold served run"
grep -q "holds" "$TMP/cold.txt" || fail "cold run must print holds verdicts"
grep -q "served from verdictd cache" "$TMP/cold.txt" && \
  fail "cold run must not claim cache hits"

# Warm run: same request is served from the daemon's verdict cache.
rc=0
"$VERDICTC" "$MODELS/autoscaler.vml" --connect "$SOCK" --engine pdr \
  > "$TMP/warm.txt" 2>&1 || rc=$?
expect_exit 0 "$rc" "warm served run"
grep -q "served from verdictd cache" "$TMP/warm.txt" || \
  fail "warm run must be served from the verdict cache"

# A violated property round-trips its counterexample over the socket and is
# re-confirmed client-side; aggregate exit code stays 1.
rc=0
"$VERDICTC" "$MODELS/rollout.vml" --connect "$SOCK" --prop quorum_kept --trace \
  > "$TMP/viol.txt" 2>&1 || rc=$?
expect_exit 1 "$rc" "served violation run"
grep -q "violated" "$TMP/viol.txt" || fail "served run must print the violation"
grep -q "counterexample confirmed" "$TMP/viol.txt" || \
  fail "served counterexample must be confirmed client-side"

# Graceful SIGTERM drain. The segment already holds every verdict: it was
# appended when each one was computed.
stop_daemon
grep -q "drained" "$TMP/daemon.txt" || fail "daemon must log its graceful drain"
[ -s "$SEGMENT" ] || fail "daemon must write its verdicts to the segment"
grep -aq '"schema":"verdict-cache-v2"' "$SEGMENT" || \
  fail "segment records must carry the verdict-cache-v2 schema"
grep -aq '"artifact"' "$SEGMENT" || \
  fail "segment must persist proof artifacts alongside proved verdicts"

# Restarted daemon serves the proved verdicts from the segment: the FIRST
# request after restart is already warm, and the incremental layer re-indexes
# the persisted artifacts (the startup banner proves they made the round trip
# through the segment).
start_daemon
# The socket binds before the banner is flushed — poll briefly.
banner_seen=""
for _ in $(seq 1 40); do
  if grep -q "prior verdict(s) for incremental reuse" "$TMP/daemon.txt"; then
    banner_seen=1
    break
  fi
  sleep 0.05
done
[ -n "$banner_seen" ] || \
  fail "restarted daemon must index persisted artifacts for incremental reuse"
rc=0
"$VERDICTC" "$MODELS/autoscaler.vml" --connect "$SOCK" --connect-timeout 10 \
  --engine pdr > "$TMP/restart.txt" 2>&1 || rc=$?
expect_exit 0 "$rc" "post-restart served run"
grep -q "served from verdictd cache" "$TMP/restart.txt" || \
  fail "restarted daemon must serve proved verdicts from the segment"

# An EDITED model after the restart: the request fingerprint no longer
# matches any cached entry, so a warm answer can only come from the
# incremental layer revalidating the persisted proof artifact against the
# changed model (restart dropped all in-memory trust; see docs/incremental.md).
sed 's/^system {/module probe {\n  var tick : 0..3;\n  rule t when tick < 3 { tick'"'"' = tick + 1; }\n  stutter always;\n}\n\nsystem {/' \
  "$MODELS/autoscaler.vml" > "$TMP/autoscaler_edit.vml"
grep -q "module probe" "$TMP/autoscaler_edit.vml" || \
  fail "test bug: model edit did not apply"
rc=0
"$VERDICTC" "$TMP/autoscaler_edit.vml" --connect "$SOCK" --engine pdr \
  > "$TMP/edited.txt" 2>&1 || rc=$?
expect_exit 0 "$rc" "edited-model served run"
grep -q "served from verdictd cache" "$TMP/edited.txt" || \
  fail "edited model must be answered by revalidating the persisted artifact"

# Crash recovery: a verdict computed in this daemon's lifetime, then SIGKILL —
# no drain runs. A warm first request after the restart on the same segment
# proves the append made the verdict durable when it was computed.
rc=0
"$VERDICTC" "$MODELS/rollout.vml" --connect "$SOCK" --prop quorum_kept \
  --engine bmc > "$TMP/crash_cold.txt" 2>&1 || rc=$?
expect_exit 1 "$rc" "cold violation before the crash"
grep -q "served from verdictd cache" "$TMP/crash_cold.txt" && \
  fail "a request for a new engine must be computed, not served warm"
disown "$DAEMON_PID"  # no job-control notice for the kill
kill -KILL "$DAEMON_PID"
for _ in $(seq 1 200); do
  kill -0 "$DAEMON_PID" 2>/dev/null || break
  sleep 0.05
done
DAEMON_PID=""
start_daemon
rc=0
"$VERDICTC" "$MODELS/rollout.vml" --connect "$SOCK" --connect-timeout 10 \
  --prop quorum_kept --engine bmc --trace > "$TMP/recovered.txt" 2>&1 || rc=$?
expect_exit 1 "$rc" "post-crash served violation"
grep -q "served from verdictd cache" "$TMP/recovered.txt" || \
  fail "a daemon restarted after SIGKILL must replay its segment and serve warm"
grep -q "counterexample confirmed" "$TMP/recovered.txt" || \
  fail "a recovered violation must carry a counterexample confirmed client-side"
stop_daemon

# A segment whose payloads carry a foreign schema serves nothing warm: every
# record keeps a valid checksum, so the scan indexes it, but no payload
# decodes. The daemon starts without a reuse banner and recomputes.
python3 - "$SEGMENT" "$TMP/skewed.seg" <<'PY'
import struct, sys
data = bytearray(open(sys.argv[1], "rb").read())
pos = 16  # header: magic, version, reserved
while pos + 32 <= len(data):
    marker, length = struct.unpack_from("<II", data, pos)
    if marker == 0:
        break
    start = pos + 32
    payload = bytes(data[start:start + length]).replace(b"verdict-cache-v2", b"verdict-cache-v9")
    checksum = 0x811C9DC5
    for byte in payload:
        checksum = ((checksum ^ byte) * 0x01000193) & 0xFFFFFFFF
    data[start:start + length] = payload
    struct.pack_into("<I", data, pos + 24, checksum)
    pos = start + (length + 7) // 8 * 8
open(sys.argv[2], "wb").write(data)
PY
grep -aq '"schema":"verdict-cache-v9"' "$TMP/skewed.seg" || \
  fail "test bug: the segment was not rewritten"
SEGMENT="$TMP/skewed.seg"
start_daemon
rc=0
"$VERDICTC" "$MODELS/autoscaler.vml" --connect "$SOCK" --connect-timeout 10 \
  --engine pdr > "$TMP/skewed.txt" 2>&1 || rc=$?
expect_exit 0 "$rc" "skewed-segment served run"
grep -q "served from verdictd cache" "$TMP/skewed.txt" && \
  fail "verdicts from a segment with a foreign schema must not be served warm"
# Checked after the request: by now the daemon is fully up, so the banner
# would have been flushed if the skewed entries had been indexed.
grep -q "prior verdict(s) for incremental reuse" "$TMP/daemon.txt" && \
  fail "daemon must not index entries whose schema it does not speak"
stop_daemon

echo "verdictd CLI: all checks passed"
exit 0
