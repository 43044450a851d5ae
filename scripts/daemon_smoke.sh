#!/usr/bin/env bash
# Loopback integration smoke for turtled + turtlectl (CI job daemon-smoke).
#
# Proves the acceptance criteria end to end on a real socket round trip:
#
#   1. turtled serving a mmap'd snapshot-v1 file answers QUERY over both
#      TCP and UDP, and every network answer is byte-identical to
#      `turtlectl --local` running the daemon's own serve path in-process
#      on the same file — the daemon serves the oracle unmodified. 2,000
#      queries pipelined on one TCP connection all get that answer too,
#      with no ERR (no query is ever shed);
#   2. hot SWAP succeeds mid-traffic and subsequent answers carry the new
#      snapshot version;
#   3. malformed input gets a counted ERR, never a crash;
#   4. QUIT runs the graceful drain: the daemon exits 0 and its metrics
#      dump passes validate_obs.py --daemon (every parsed query answered
#      exactly once, daemon.* ledger closes).
#
# Usage: scripts/daemon_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BUILD=${1:-build}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

WORK=$(mktemp -d)
DAEMON_PID=
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "daemon_smoke: FAIL: $*" >&2
  exit 1
}

TURTLED="$BUILD/tools/turtled"
TURTLECTL="$BUILD/tools/turtlectl"
[ -x "$TURTLED" ] || fail "$TURTLED not built"
[ -x "$TURTLECTL" ] || fail "$TURTLECTL not built"

# --- Fixtures: two snapshots distinguishable by version. -------------------
"$BUILD"/bench/micro_snapshot --blocks=50 --addrs=8 --rounds=20 \
  --snapshot-out="$WORK/v41.snap" --snapshot-version=41 > /dev/null
"$BUILD"/bench/micro_snapshot --blocks=50 --addrs=8 --rounds=20 \
  --snapshot-out="$WORK/v42.snap" --snapshot-version=42 > /dev/null

# --- Launch on ephemeral loopback ports. -----------------------------------
"$TURTLED" --snapshot="$WORK/v41.snap" --port-file="$WORK/ports.txt" \
  --metrics-out="$WORK/metrics.json" > "$WORK/turtled.log" &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  [ -s "$WORK/ports.txt" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "turtled died at startup: $(cat "$WORK/turtled.log")"
  sleep 0.1
done
[ -s "$WORK/ports.txt" ] || fail "port file never appeared"

ctl() { "$TURTLECTL" --port-file="$WORK/ports.txt" --timeout-ms=5000 "$@"; }

# --- 1. QUERY matrix: TCP == UDP == in-process, byte for byte. -------------
queries=(
  "query 10.0.0.1"
  "query 10.0.5.9 scope=as"
  "query 10.0.7.1 scope=global"
  "query 10.0.3.2 addr-coverage=50 ping-coverage=99"
)
burst_pairs=()  # wire request line, expected reply; for the burst below
for q in "${queries[@]}"; do
  # shellcheck disable=SC2086 # word splitting is the request grammar
  tcp=$(ctl $q) || fail "TCP $q"
  # shellcheck disable=SC2086
  udp=$(ctl --udp=true $q) || fail "UDP $q"
  # shellcheck disable=SC2086
  local_answer=$("$TURTLECTL" --local="$WORK/v41.snap" $q) || fail "--local $q"
  [ "$tcp" = "$local_answer" ] || fail "TCP answer diverges for '$q': '$tcp' vs '$local_answer'"
  [ "$udp" = "$local_answer" ] || fail "UDP answer diverges for '$q': '$udp' vs '$local_answer'"
  case "$tcp" in "OK QUERY timeout_us="*) ;; *) fail "malformed answer '$tcp'" ;; esac
  burst_pairs+=("QUERY ${q#query }" "$local_answer")
done
echo "daemon_smoke: ${#queries[@]} queries byte-identical across TCP/UDP/in-process"

# Pipelined burst: 2,000 queries cycling the matrix, written at once on one
# TCP connection. Each reply must be that query's --local answer; an
# `ERR overloaded request shed` (or any ERR) fails the smoke.
python3 - "$WORK/ports.txt" "${burst_pairs[@]}" <<'EOF' || fail "pipelined burst"
import socket
import sys

ports = dict(token.split("=") for token in open(sys.argv[1]).read().split())
requests, expected = sys.argv[2::2], sys.argv[3::2]
n = 2000
wire = "".join(requests[i % len(requests)] + "\n" for i in range(n)).encode()
with socket.create_connection(("127.0.0.1", int(ports["tcp"])), timeout=10) as sock:
    sock.sendall(wire)
    data = b""
    while data.count(b"\n") < n:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
replies = data.decode().split("\n")[:n]
errors = sum(reply.startswith("ERR") for reply in replies)
wrong = sum(reply != expected[i % len(expected)] for i, reply in enumerate(replies))
if len(replies) < n or errors or wrong:
    sys.exit(f"daemon_smoke: burst got {len(replies)} replies, {errors} ERR, "
             f"{wrong} differing from --local")
print(f"daemon_smoke: {n} pipelined queries on one connection, "
      "all byte-equal to --local, 0 ERR")
EOF

# The adaptive default: with no --timeout-ms, turtlectl bootstraps its
# deadline from the oracle's own global recommendation.
"$TURTLECTL" --port-file="$WORK/ports.txt" query 10.0.0.1 \
  2> "$WORK/bootstrap.err" > /dev/null || fail "bootstrap-timeout query"
grep -q "timeout from oracle" "$WORK/bootstrap.err" || \
  fail "bootstrap timeout not sourced from the oracle"

# --- 2. Admin surface + malformed input (counted, not fatal). --------------
ctl version | grep -q "^OK VERSION proto=1 snapshot=41$" || fail "VERSION before swap"
ctl stats | grep -q "snapshot_version=41" || fail "STATS before swap"
if ctl bogus-command > "$WORK/err.out"; then
  fail "malformed command exited 0"
fi
grep -q "^ERR unknown-command" "$WORK/err.out" || fail "malformed command reply: $(cat "$WORK/err.out")"

# --- 3. Hot SWAP mid-traffic. ----------------------------------------------
(
  for _ in $(seq 1 40); do
    ctl --udp=true query 10.0.1.1 > /dev/null 2>&1 || true
  done
) &
TRAFFIC_PID=$!
ctl swap "$WORK/v42.snap" | grep -q "^OK SWAP version=42 blocks=50$" || fail "SWAP"
wait "$TRAFFIC_PID"
ctl version | grep -q "snapshot=42" || fail "VERSION after swap"
ctl query 10.0.0.1 | grep -q "version=42" || fail "answers still on old snapshot"
# A bad path is a counted refusal, not a crash.
if ctl swap /nonexistent.snap > "$WORK/swapfail.out"; then
  fail "SWAP of a nonexistent file exited 0"
fi
grep -q "^ERR swap-failed" "$WORK/swapfail.out" || fail "bad SWAP reply"
echo "daemon_smoke: hot swap 41 -> 42 under concurrent traffic"

# --- 4. Graceful shutdown + ledger validation. -----------------------------
ctl quit | grep -q "^OK BYE$" || fail "QUIT reply"
for _ in $(seq 1 100); do
  kill -0 "$DAEMON_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then
  fail "turtled still running after QUIT"
fi
wait "$DAEMON_PID" || fail "turtled exited non-zero"
DAEMON_PID=

python3 scripts/validate_obs.py --metrics "$WORK/metrics.json" --daemon \
  || fail "metrics dump failed validate_obs.py --daemon"

echo "daemon_smoke: OK"
