#!/bin/sh
# Docs-honesty check: every ```sh fenced verdictc / verdict-report / verdictd
# invocation in README.md and docs/*.md is executed against the real binaries,
# so flag drift between the docs and the CLI fails CI instead of rotting
# silently.
#
# The commands run inside a sandbox directory that mirrors what the docs
# assume: `examples/` (symlinked from the repo), `build/tools/verdictc` and
# `build/tools/verdict-report` (symlinked to the freshly built binaries, and
# also on PATH for the bare `verdictc model.vml` form), a `props.txt` naming
# `quorum_kept`, and `model.vml` (the docs/vml.md example model). A command
# passes when it exits 0 (all hold), 1 (violation found), or 3 (undecided) —
# the documented verdict codes. Exit 2 (usage/model error — e.g. a flag the
# CLI no longer accepts), a timeout, or any other code fails the check.
#
# Daemon examples: a verdictd command ending in `&` is started in the
# background; the check waits for its --socket path to appear so the
# following --connect examples have a live daemon, and tears every daemon
# down on exit. Daemons are keyed by socket path: a later example reusing a
# path replaces that daemon only, while examples on other paths keep their
# daemons running — multi-shard walkthroughs (docs/sharding.md) background a
# whole cluster plus its router. Without a verdictd argument those examples
# are skipped.
#
# Usage: check_docs_examples.sh <verdictc> <verdict-report> <repo-root> \
#                               [verdictd]
set -u

VERDICTC="$1"
REPORT="$2"
ROOT="$3"
VERDICTD="${4:-}"

# The sandbox symlinks to the binaries, so relative arguments must be
# anchored to the caller's directory first.
absolutize() {
  case "$1" in
    ""|/*) printf '%s' "$1" ;;
    *) printf '%s/%s' "$PWD" "$1" ;;
  esac
}
VERDICTC=$(absolutize "$VERDICTC")
REPORT=$(absolutize "$REPORT")
ROOT=$(absolutize "$ROOT")
VERDICTD=$(absolutize "$VERDICTD")

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

[ -x "$VERDICTC" ] || fail "verdictc binary not executable: $VERDICTC"
[ -x "$REPORT" ] || fail "verdict-report binary not executable: $REPORT"
[ -z "$VERDICTD" ] || [ -x "$VERDICTD" ] || \
  fail "verdictd binary not executable: $VERDICTD"
[ -f "$ROOT/README.md" ] || fail "repo root without README.md: $ROOT"

SANDBOX="${TMPDIR:-/tmp}/verdict_docs_check_$$"
mkdir -p "$SANDBOX/build/tools"

# Live-daemon registry: one "pid<TAB>socket" line per backgrounded daemon.
DAEMON_REG="$SANDBOX/daemons.txt"
: > "$DAEMON_REG"

stop_daemon_pid() {
  kill -TERM "$1" 2>/dev/null
  # Give the drain a moment, then make sure it is gone.
  for _ in 1 2 3 4 5 6 7 8 9 10; do
    kill -0 "$1" 2>/dev/null || break
    sleep 0.1
  done
  kill -KILL "$1" 2>/dev/null
}

kill_daemons() {
  [ -f "$DAEMON_REG" ] || return 0
  while IFS="$(printf '\t')" read -r pid _sock; do
    [ -n "$pid" ] && stop_daemon_pid "$pid"
  done < "$DAEMON_REG"
  : > "$DAEMON_REG"
}

# unregister_daemon SOCKET: stop and drop the daemon bound to SOCKET, if
# any; daemons on other sockets are left alone.
unregister_daemon() {
  old_pid=$(awk -F'\t' -v s="$1" '$2 == s { print $1 }' "$DAEMON_REG")
  if [ -n "$old_pid" ]; then
    stop_daemon_pid "$old_pid"
    awk -F'\t' -v s="$1" '$2 != s' "$DAEMON_REG" > "$DAEMON_REG.new" &&
      mv "$DAEMON_REG.new" "$DAEMON_REG"
  fi
}

register_daemon() { # PID SOCKET
  printf '%s\t%s\n' "$1" "$2" >> "$DAEMON_REG"
}

cleanup() {
  kill_daemons
  rm -rf "$SANDBOX"
}
trap cleanup EXIT

ln -s "$VERDICTC" "$SANDBOX/build/tools/verdictc"
ln -s "$REPORT" "$SANDBOX/build/tools/verdict-report"
[ -n "$VERDICTD" ] && ln -s "$VERDICTD" "$SANDBOX/build/tools/verdictd"
ln -s "$ROOT/examples" "$SANDBOX/examples"
printf '# nightly invariants\nquorum_kept\n' > "$SANDBOX/props.txt"

# The docs/vml.md example model, for the guide's generic `verdictc model.vml`
# command lines (property names must match: never_empty, spec_bounded,
# recoverable).
cat > "$SANDBOX/model.vml" <<'EOF'
param blast : 0..2;

module cluster {
  var replicas : 0..5;
  var kills    : 0..2;
  init replicas = 3;
  init kills = 0;
  rule deploy_scale_up when replicas < 3 { replicas' = replicas + 1; }
  rule chaos_kill when kills < blast & replicas > 0 {
    replicas' = replicas - 1;
    kills'    = kills + 1;
  }
  stutter always;
}

system {
  schedule interleaving;
  ltl never_empty  "G (cluster.replicas > 0)";
  ltl spec_bounded "G (cluster.replicas <= 3)";
  ctl recoverable  "AG (EF (cluster.replicas = 3))";
}
EOF

# Pull every command line out of ```sh fences: join backslash continuations,
# strip a transcript-style "$ " prefix, keep only verdictc / verdict-report
# invocations (skipping doc-block output lines, cat/echo, cmake, ...).
COMMANDS="$SANDBOX/commands.txt"
awk '
  /^```sh[ \t]*$/ { in_block = 1; pending = ""; next }
  /^```/          { in_block = 0; next }
  !in_block       { next }
  {
    line = $0
    sub(/^\$ /, "", line)
    if (pending != "") line = pending " " line
    if (line ~ /\\$/) { sub(/[ \t]*\\$/, "", line); pending = line; next }
    pending = ""
    # Collapse the indentation of continuation lines.
    gsub(/[ \t]+/, " ", line)
    sub(/^ /, "", line)
    if (line ~ /^(\.\/)?(build\/tools\/)?(verdictc|verdict-report|verdictd)([ \t]|$)/)
      printf "%s\t%s\n", FILENAME, line
  }
' "$ROOT/README.md" "$ROOT"/docs/*.md > "$COMMANDS"

total=$(wc -l < "$COMMANDS")
[ "$total" -gt 0 ] || fail "no verdictc examples found in the docs (extraction broken?)"

n=0
while IFS="$(printf '\t')" read -r source cmd; do
  n=$((n + 1))
  out="$SANDBOX/out.$n"

  case "$cmd" in
    *verdictd*)
      if [ -z "$VERDICTD" ]; then
        echo "skip [$source] $cmd (no verdictd binary supplied)"
        continue
      fi
      case "$cmd" in
        *"&")
          # A backgrounded daemon example: start it, then wait for its
          # --socket path so the --connect examples that follow have a live
          # server. Keyed by socket path — reusing a path replaces that
          # daemon, other daemons (shards, the router) keep running.
          sock=$(printf '%s\n' "$cmd" | sed -n 's/.*--socket \([^ ]*\).*/\1/p')
          [ -n "$sock" ] || fail "[$source] daemon example without --socket: $cmd"
          # A hard-killed predecessor leaves a stale socket file; make sure
          # the wait below observes the NEW daemon's bind.
          unregister_daemon "$sock"
          rm -f "$SANDBOX/$sock" "$sock" 2>/dev/null
          plain=${cmd%&}
          # Both execs matter: $! is the subshell's pid, and only if the
          # subshell and then `sh -c` replace themselves is that pid the
          # daemon's own, which kill_daemons can stop.
          (cd "$SANDBOX" && export PATH="$SANDBOX/build/tools:$PATH" &&
             exec sh -c "exec $plain") > "$out" 2>&1 &
          register_daemon $! "$sock"
          i=0
          while [ ! -S "$SANDBOX/$sock" ] && [ ! -S "$sock" ]; do
            i=$((i + 1))
            [ "$i" -le 100 ] || {
              sed "s/^/    /" "$out" >&2
              fail "[$source] daemon socket $sock never appeared: $cmd"
            }
            sleep 0.05
          done
          echo "ok [$source] $cmd (daemon up)"
          continue
          ;;
      esac
      ;;
  esac

  (cd "$SANDBOX" && PATH="$SANDBOX/build/tools:$PATH" timeout 120 sh -c "$cmd") \
    > "$out" 2>&1
  code=$?
  case "$code" in
    0|1|3) ;;
    124) fail "[$source] timed out: $cmd" ;;
    2) sed "s/^/    /" "$out" >&2
       fail "[$source] usage/model error (exit 2) — stale flag or path?: $cmd" ;;
    *) sed "s/^/    /" "$out" >&2
       fail "[$source] exit $code: $cmd" ;;
  esac
  grep -q "^usage:" "$out" && {
    sed "s/^/    /" "$out" >&2
    fail "[$source] printed usage text: $cmd"
  }
  echo "ok [$source] $cmd (exit $code)"
done < "$COMMANDS"

echo "docs examples: all $total command(s) ran clean"
exit 0
