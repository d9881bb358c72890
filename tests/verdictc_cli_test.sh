#!/usr/bin/env bash
# Drives the verdictc CLI end-to-end: --prop/--props-file selection, the
# per-property verdict table, and the documented aggregate exit codes
# (0 all hold or bound-clean, 1 any violated, 2 errors, 3 any undecided).
#
# With a third argument (the verdict-report binary) it also validates the
# --stats-json / --trace-out output JSON-aware: verdict-report --check parses
# the stats document and enforces the verdict-stats-v1 schema field by field.
#
# Usage: verdictc_cli_test.sh <path-to-verdictc> <examples/models dir> \
#                             [path-to-verdict-report]
set -euo pipefail

VERDICTC="$1"
MODELS="$2"
REPORT="${3:-}"
TMP="$(mktemp -d "${TMPDIR:-/tmp}/verdictc_cli.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# expect_exit WANT GOT WHAT [OUTPUT_FILE]: on mismatch, name the failing
# check explicitly and dump the run's output so the ctest log is actionable.
expect_exit() {
  local want="$1" got="$2" what="$3" output="${4:-}"
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $what: expected exit $want, got $got" >&2
    if [ -n "$output" ] && [ -f "$output" ]; then
      echo "---- output ($output) ----" >&2
      cat "$output" >&2
      echo "--------------------------" >&2
    fi
    exit 1
  fi
}

# run RC_VAR OUTPUT_FILE CMD...: run a command whose nonzero exit is part of
# the contract under test without tripping `set -e`.
run() {
  local -n rc_ref="$1"
  local output="$2"
  shift 2
  rc_ref=0
  "$@" > "$output" 2>&1 || rc_ref=$?
}

# --help exits 0 and documents the exit-code contract.
run rc "$TMP/help.txt" "$VERDICTC" --help
expect_exit 0 "$rc" "--help" "$TMP/help.txt"
grep -q "exit codes:" "$TMP/help.txt" || fail "--help must document exit codes"
grep -q "3  no violation" "$TMP/help.txt" || fail "--help must document exit code 3"

# All properties hold: exit 0.
run rc "$TMP/hold.txt" "$VERDICTC" "$MODELS/autoscaler.vml" --engine kinduction --depth 20
expect_exit 0 "$rc" "autoscaler all-hold run" "$TMP/hold.txt"
grep -q "holds" "$TMP/hold.txt" || fail "all-hold run must print a holds verdict"

# A violated property: exit 1, confirmed counterexample.
run rc "$TMP/viol.txt" "$VERDICTC" "$MODELS/rollout.vml" --prop quorum_kept --trace
expect_exit 1 "$rc" "rollout violation run" "$TMP/viol.txt"
grep -q "violated" "$TMP/viol.txt" || fail "violation run must print a violated verdict"
grep -q "counterexample confirmed" "$TMP/viol.txt" || \
  fail "violation run must confirm the counterexample"

# --props-file drives the same batch and prints the session verdict table.
printf '# properties under test\n\nquorum_kept\n' > "$TMP/props.txt"
run rc "$TMP/batch.txt" "$VERDICTC" "$MODELS/rollout.vml" --props-file "$TMP/props.txt"
expect_exit 1 "$rc" "props-file run" "$TMP/batch.txt"
grep -q "property" "$TMP/batch.txt" || fail "props-file run must print the verdict table"
grep -q "quorum_kept" "$TMP/batch.txt" || fail "verdict table must name the property"
grep -q "session:" "$TMP/batch.txt" || fail "props-file run must print session stats"

# Unknown property names are usage errors: exit 2.
run rc "$TMP/unknown.txt" "$VERDICTC" "$MODELS/rollout.vml" --prop no_such_property
expect_exit 2 "$rc" "unknown property" "$TMP/unknown.txt"

# Missing props file: exit 2.
run rc "$TMP/missing.txt" "$VERDICTC" "$MODELS/rollout.vml" \
  --props-file "$TMP/does_not_exist.txt"
expect_exit 2 "$rc" "missing props file" "$TMP/missing.txt"

# --version prints one build-identity line and exits 0.
run rc "$TMP/version.txt" "$VERDICTC" --version
expect_exit 0 "$rc" "--version" "$TMP/version.txt"
grep -q "^verdictc " "$TMP/version.txt" || fail "--version must name the tool"
grep -q "Z3" "$TMP/version.txt" || fail "--version must report the Z3 version"
# In a git checkout the SHA is the checkout's HEAD (stamped at build time,
# "-dirty" when the tree had uncommitted changes), not the one CMake first
# configured at.
SRC="$(cd "$MODELS/../.." && pwd)"
if head_sha="$(git -C "$SRC" rev-parse --short=12 HEAD 2>/dev/null)"; then
  printed_sha="$(awk '{print $2}' "$TMP/version.txt")"
  [ "${printed_sha%-dirty}" = "$head_sha" ] || \
    fail "--version prints SHA '$printed_sha', the checkout's HEAD is '$head_sha'"
fi

# `--engine portfolio` and `--jobs` are not options: usage error, exit 2.
run rc "$TMP/portfolio.txt" "$VERDICTC" "$MODELS/rollout.vml" --engine portfolio
expect_exit 2 "$rc" "--engine portfolio" "$TMP/portfolio.txt"
grep -q "^usage:" "$TMP/portfolio.txt" || fail "--engine portfolio must print the usage"
run rc "$TMP/jobs.txt" "$VERDICTC" "$MODELS/rollout.vml" --jobs 2
expect_exit 2 "$rc" "--jobs 2" "$TMP/jobs.txt"
grep -q "^usage:" "$TMP/jobs.txt" || fail "--jobs must print the usage"

# --stats-json + --trace-out: machine-readable exports, schema-checked.
run rc "$TMP/obs.txt" "$VERDICTC" "$MODELS/rollout.vml" --engine bmc --depth 8 \
  --stats-json "$TMP/stats.json" --trace-out "$TMP/trace.ndjson"
expect_exit 1 "$rc" "stats/trace export run" "$TMP/obs.txt"
[ -s "$TMP/stats.json" ] || fail "--stats-json must write a non-empty file"
[ -s "$TMP/trace.ndjson" ] || fail "--trace-out must write a non-empty file"
grep -q '"schema":"verdict-stats-v1"' "$TMP/stats.json" || \
  fail "stats document must carry the verdict-stats-v1 schema marker"
grep -q '"name":"quorum_kept"' "$TMP/stats.json" || \
  fail "stats document must record the checked property"
grep -q '"exit_code":1' "$TMP/stats.json" || \
  fail "stats document must record the exit code"
head -1 "$TMP/trace.ndjson" | grep -q '"type":"run.start"' || \
  fail "trace must open with a run.start event"
tail -1 "$TMP/trace.ndjson" | grep -q '"type":"run.finish"' || \
  fail "trace must close with a run.finish event"
# LTL properties route through ONE core::Session, whose safety group is one
# BMC batch: its per-depth progress event carries the pending query count.
grep '"type":"bmc.depth"' "$TMP/trace.ndjson" | grep -q '"pending":' || \
  fail "a session bmc run must emit bmc.depth events with a pending count"
grep -q '"type":"session.resolve"' "$TMP/trace.ndjson" || \
  fail "a session run must emit session.resolve events"

if [ -n "$REPORT" ]; then
  # JSON-aware validation: parse + schema-check the document, then render
  # both reports (exit 0 = clean).
  run rc "$TMP/check.txt" "$REPORT" --stats "$TMP/stats.json" --check
  expect_exit 0 "$rc" "verdict-report --check on a fresh stats document" "$TMP/check.txt"
  run rc "$TMP/report.txt" "$REPORT" --stats "$TMP/stats.json" --trace "$TMP/trace.ndjson"
  expect_exit 0 "$rc" "verdict-report rendering" "$TMP/report.txt"
  grep -q "quorum_kept" "$TMP/report.txt" || \
    fail "report must name the checked property"

  # `-` reads the document from stdin, so the tool composes in pipelines.
  rc=0
  "$REPORT" --stats - --check < "$TMP/stats.json" > "$TMP/stdin_check.txt" 2>&1 || rc=$?
  expect_exit 0 "$rc" "verdict-report --stats - (stdin)" "$TMP/stdin_check.txt"
  rc=0
  "$REPORT" --trace - < "$TMP/trace.ndjson" > "$TMP/stdin_trace.txt" 2>&1 || rc=$?
  expect_exit 0 "$rc" "verdict-report --trace - (stdin)" "$TMP/stdin_trace.txt"
  grep -q "run.start" "$TMP/stdin_trace.txt" || \
    fail "stdin trace report must aggregate event types"
  rc=0
  "$REPORT" --stats - --trace - --check < "$TMP/stats.json" > /dev/null 2>&1 || rc=$?
  expect_exit 2 "$rc" "verdict-report with two stdin inputs must be a usage error"

  # A corrupted document must be rejected.
  sed 's/verdict-stats-v1/verdict-stats-v999/' "$TMP/stats.json" \
    > "$TMP/bad_schema.json"
  run rc /dev/null "$REPORT" --stats "$TMP/bad_schema.json" --check
  expect_exit 1 "$rc" "verdict-report --check on a wrong schema marker"
  printf '{"not json' > "$TMP/bad_json.json"
  run rc /dev/null "$REPORT" --stats "$TMP/bad_json.json" --check
  expect_exit 1 "$rc" "verdict-report --check on malformed JSON"
  # The svc.* counter set is closed: the retired ring, peer and snapshot
  # counters are producer bugs now.
  for counter in svc.ring.local svc.peer.get svc.cache.load_skipped; do
    sed "s/\"counters\":{/\"counters\":{\"$counter\":1,/" "$TMP/stats.json" \
      > "$TMP/bad_counter.json"
    grep -q "\"$counter\":1" "$TMP/bad_counter.json" || fail "test bug: $counter not planted"
    run rc /dev/null "$REPORT" --stats "$TMP/bad_counter.json" --check
    expect_exit 1 "$rc" "verdict-report --check on the retired counter $counter"
  done
fi

# --no-abs: the symmetry-reduction escape hatch must not change verdicts,
# and the stats document must record that the pass was off.
run rc "$TMP/noabs.txt" "$VERDICTC" "$MODELS/rollout.vml" --prop quorum_kept \
  --engine bmc --depth 8 --no-abs --stats-json "$TMP/noabs.json"
expect_exit 1 "$rc" "--no-abs run" "$TMP/noabs.txt"
grep -q '"abstract":false' "$TMP/noabs.json" || \
  fail "--no-abs must be recorded in the stats document"

# An already-expired budget leaves the property undecided: exit 3.
run rc "$TMP/timeout.txt" "$VERDICTC" "$MODELS/rollout.vml" --prop quorum_kept \
  --engine bmc --timeout 0.000001
expect_exit 3 "$rc" "timeout run" "$TMP/timeout.txt"
grep -q "timeout" "$TMP/timeout.txt" || fail "timeout run must print a timeout verdict"

echo "verdictc CLI: all checks passed"
exit 0
