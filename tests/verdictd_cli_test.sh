#!/usr/bin/env bash
# Drives the verdictd daemon end-to-end through the real binaries: cold
# verification over the Unix socket, warm (cached) re-verification with the
# client-visible cache marker, graceful SIGTERM drain, and the persistent
# cache file carrying proved verdicts across a daemon restart.
#
# Usage: verdictd_cli_test.sh <path-to-verdictd> <path-to-verdictc> \
#                             <examples/models dir>
set -euo pipefail

VERDICTD="$1"
VERDICTC="$2"
MODELS="$3"
TMP="$(mktemp -d "${TMPDIR:-/tmp}/verdictd_cli.XXXXXX")"
SOCK="$TMP/verdictd.sock"
CACHE="$TMP/cache.ndjson"
DAEMON_PID=""
SHARD1_PID=""
SHARD2_PID=""

cleanup() {
  for pid in "$DAEMON_PID" "$SHARD1_PID" "$SHARD2_PID"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill -KILL "$pid" 2>/dev/null || true
    fi
  done
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
  "$VERDICTD" --socket "$SOCK" --cache-file "$CACHE" --jobs 2 \
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

# Graceful SIGTERM drain persists the cache file.
stop_daemon
grep -q "drained" "$TMP/daemon.txt" || fail "daemon must log its graceful drain"
[ -s "$CACHE" ] || fail "daemon must persist the cache file on SIGTERM"
grep -q '"schema":"verdict-cache-v2"' "$CACHE" || \
  fail "cache file must carry the verdict-cache-v2 schema"
grep -q '"artifact"' "$CACHE" || \
  fail "cache file must persist proof artifacts alongside proved verdicts"

# Restarted daemon serves the proved verdicts from the persisted cache: the
# FIRST request after restart is already warm, and the incremental layer
# re-indexes the persisted artifacts (the startup banner proves they made the
# round trip through the cache file).
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
  fail "restarted daemon must serve proved verdicts from the cache file"

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
stop_daemon

# A version-skewed cache file is rejected wholesale, never blindly trusted:
# the daemon starts empty (no reuse banner) and the first request recomputes.
sed 's/verdict-cache-v2/verdict-cache-v9/g' "$CACHE" > "$TMP/skewed.ndjson"
CACHE="$TMP/skewed.ndjson"
start_daemon
rc=0
"$VERDICTC" "$MODELS/autoscaler.vml" --connect "$SOCK" --connect-timeout 10 \
  --engine pdr > "$TMP/skewed.txt" 2>&1 || rc=$?
expect_exit 0 "$rc" "skewed-cache served run"
grep -q "served from verdictd cache" "$TMP/skewed.txt" && \
  fail "verdicts from a version-skewed cache file must not be served warm"
# Checked after the request: by now the daemon is fully up, so the banner
# would have been flushed if the skewed entries had been indexed.
grep -q "prior verdict(s) for incremental reuse" "$TMP/daemon.txt" && \
  fail "daemon must not index entries from a version-skewed cache file"
stop_daemon

# ---------------------------------------------------------------------------
# Sharded cluster: peer fetch, crash degradation, segment recovery.
# (docs/sharding.md end to end through the real binaries.)
# ---------------------------------------------------------------------------
S1="$TMP/shard1.sock"
S2="$TMP/shard2.sock"
CLUSTER="$S1,$S2"

start_shard() { # socket segment-file log-name; prints the pid
  "$VERDICTD" --socket "$1" --segment-file "$2" --cluster "$CLUSTER" --jobs 2 \
    > "$TMP/$3.txt" 2>&1 &
  echo $!
}

# --shard-of answers the routing question offline — no daemon involved.
rc=0
"$VERDICTC" "$MODELS/autoscaler.vml" --shard-of "$CLUSTER" --engine pdr \
  > "$TMP/shardof.txt" 2>&1 || rc=$?
expect_exit 0 "$rc" "verdictc --shard-of"
grep -q -- "-> shard" "$TMP/shardof.txt" || \
  fail "--shard-of must print a ring assignment per property"

SHARD1_PID="$(start_shard "$S1" "$TMP/shard1.seg" shard1)"
SHARD2_PID="$(start_shard "$S2" "$TMP/shard2.seg" shard2)"

# Cold verification through shard 1 computes (and appends to its segment).
rc=0
"$VERDICTC" "$MODELS/autoscaler.vml" --connect "$S1" --connect-timeout 10 \
  --engine pdr > "$TMP/shard_cold.txt" 2>&1 || rc=$?
expect_exit 0 "$rc" "cold run via shard 1"
grep -q "served from verdictd cache" "$TMP/shard_cold.txt" && \
  fail "cold run via shard 1 must not claim cache hits"
grep -q "of 2 on the cluster ring" "$TMP/shard1.txt" || \
  fail "a clustered shard must announce its ring position"

# The same request through shard 2: properties shard 1 owns arrive over
# PEER_GET, properties shard 2 owns arrived via shard 1's PEER_PUT. One
# priming round absorbs any still-in-flight PUT, then the verdicts must be
# warm — no recomputation on the second shard.
rc=0
"$VERDICTC" "$MODELS/autoscaler.vml" --connect "$S2" --connect-timeout 10 \
  --engine pdr > "$TMP/shard_prime.txt" 2>&1 || rc=$?
expect_exit 0 "$rc" "priming run via shard 2"
rc=0
"$VERDICTC" "$MODELS/autoscaler.vml" --connect "$S2" --engine pdr \
  > "$TMP/shard_warm.txt" 2>&1 || rc=$?
expect_exit 0 "$rc" "warm run via shard 2"
grep -q "served from verdictd cache" "$TMP/shard_warm.txt" || \
  fail "shard 2 must serve the cluster-warm verdicts without recomputing"

# Kill shard 1 outright (no drain, no snapshot). The cluster degrades, it
# does not fail: shard 2 keeps serving its warm set, and requests whose ring
# owner is the dead shard fall back to local compute — never a client error.
kill -KILL "$SHARD1_PID"
SHARD1_PID=""
rc=0
"$VERDICTC" "$MODELS/autoscaler.vml" --connect "$S2" --engine pdr \
  > "$TMP/degraded_warm.txt" 2>&1 || rc=$?
expect_exit 0 "$rc" "warm run via shard 2 with shard 1 dead"
grep -q "served from verdictd cache" "$TMP/degraded_warm.txt" || \
  fail "a dead peer must not disturb shard 2's warm set"
rc=0
"$VERDICTC" "$MODELS/rollout.vml" --connect "$S2" --prop quorum_kept --trace \
  > "$TMP/degraded_cold.txt" 2>&1 || rc=$?
expect_exit 1 "$rc" "cold violation via shard 2 with shard 1 dead"
grep -q "counterexample confirmed" "$TMP/degraded_cold.txt" || \
  fail "degraded-mode verdicts must still carry confirmed counterexamples"

# Restart shard 1 from its segment: SIGKILL means no cache-file snapshot was
# ever written, so a warm first request proves the mmap'd segment carried the
# verdicts across the crash.
SHARD1_PID="$(start_shard "$S1" "$TMP/shard1.seg" shard1_restarted)"
rc=0
"$VERDICTC" "$MODELS/autoscaler.vml" --connect "$S1" --connect-timeout 10 \
  --engine pdr > "$TMP/recovered.txt" 2>&1 || rc=$?
expect_exit 0 "$rc" "post-crash run via restarted shard 1"
grep -q "served from verdictd cache" "$TMP/recovered.txt" || \
  fail "restarted shard must replay its segment and serve warm"

stop_pid "$SHARD2_PID"
SHARD2_PID=""
stop_pid "$SHARD1_PID"
SHARD1_PID=""

echo "verdictd CLI: all checks passed"
exit 0
