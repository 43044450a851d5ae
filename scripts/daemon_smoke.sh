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
#      with no ERR (no query is ever shed), and still do when the client
#      half-closes right after sending: peer EOF flushes the owed replies
#      before the close;
#   2. hot SWAP succeeds mid-traffic and subsequent answers carry the new
#      snapshot version;
#   3. malformed input gets a counted ERR, never a crash;
#   4. QUIT runs the graceful drain: the daemon exits 0 and its metrics
#      dump passes validate_obs.py --daemon (every parsed query answered
#      exactly once, daemon.* ledger closes);
#   5. a second turtled with --max-idle-ms=300 reaps a silent TCP client
#      over real sockets and real time, while a client querying every
#      100 ms keeps its connection and its --local answers. Then it reaps
#      a lone silent client, for which only the idle deadline that the
#      loop tick returns can wake the loop. Its dump validates too.
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
# `ERR overloaded request shed` (or any ERR) fails the smoke. The burst runs
# twice; the second time the client half-closes (shutdown(SHUT_WR), as
# `printf ... | nc` does) right after sending, and must still get all 2,000
# replies, then EOF.
python3 - "$WORK/ports.txt" "${burst_pairs[@]}" <<'EOF' || fail "pipelined burst"
import socket
import sys

ports = dict(token.split("=") for token in open(sys.argv[1]).read().split())
requests, expected = sys.argv[2::2], sys.argv[3::2]
n = 2000
wire = "".join(requests[i % len(requests)] + "\n" for i in range(n)).encode()
for half_close in (False, True):
    label = "half-closed burst" if half_close else "burst"
    with socket.create_connection(("127.0.0.1", int(ports["tcp"])), timeout=10) as sock:
        sock.sendall(wire)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        data = b""
        eof = False
        # A half-closed client reads on to EOF: nothing may follow the replies.
        while half_close or data.count(b"\n") < n:
            chunk = sock.recv(65536)
            if not chunk:
                eof = True
                break
            data += chunk
    replies = data.decode().split("\n")
    if replies[-1] == "":
        replies.pop()
    errors = sum(reply.startswith("ERR") for reply in replies[:n])
    wrong = sum(reply != expected[i % len(expected)] for i, reply in enumerate(replies[:n]))
    if len(replies) < n or errors or wrong:
        sys.exit(f"daemon_smoke: {label} got {len(replies)} replies, {errors} ERR, "
                 f"{wrong} differing from --local")
    if half_close and (not eof or len(replies) != n):
        sys.exit(f"daemon_smoke: {label} got {len(replies)} replies, eof={eof}; "
                 f"want exactly {n}, then EOF")
print(f"daemon_smoke: {n} pipelined queries on one connection, all byte-equal "
      "to --local, 0 ERR; again half-closed, then EOF")
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

# --- 5. Idle reaping over real sockets and real time. ----------------------
"$TURTLED" --snapshot="$WORK/v41.snap" --port-file="$WORK/idle_ports.txt" \
  --metrics-out="$WORK/idle_metrics.json" --max-idle-ms=300 > "$WORK/idle.log" &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  [ -s "$WORK/idle_ports.txt" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "idle turtled died at startup: $(cat "$WORK/idle.log")"
  sleep 0.1
done
[ -s "$WORK/idle_ports.txt" ] || fail "idle port file never appeared"
idle_ctl() { "$TURTLECTL" --port-file="$WORK/idle_ports.txt" --timeout-ms=5000 "$@"; }

# One silent client must see EOF within 3 s; one client sending a QUERY
# every 100 ms over the same span keeps getting the --local answer.
python3 - "$WORK/idle_ports.txt" "${burst_pairs[0]}" "${burst_pairs[1]}" <<'EOF' \
  || fail "idle reaping"
import socket
import sys
import time

ports = dict(token.split("=") for token in open(sys.argv[1]).read().split())
request, expected = sys.argv[2], sys.argv[3]
addr = ("127.0.0.1", int(ports["tcp"]))
silent = socket.create_connection(addr, timeout=5)
active = socket.create_connection(addr, timeout=5)
silent.setblocking(False)
start = time.monotonic()
reaped_at = None
answers = 0
pending = b""
# Run at least four windows, and on until the silent client is reaped.
while True:
    elapsed = time.monotonic() - start
    if elapsed > 3.0 or (reaped_at is not None and elapsed > 1.2):
        break
    active.sendall((request + "\n").encode())
    while b"\n" not in pending:
        chunk = active.recv(4096)
        if not chunk:
            sys.exit(f"daemon_smoke: active client closed after {answers} answers")
        pending += chunk
    line, pending = pending.split(b"\n", 1)
    if line.decode() != expected:
        sys.exit(f"daemon_smoke: active client got '{line.decode()}', want '{expected}'")
    answers += 1
    if reaped_at is None:
        try:
            if silent.recv(1) == b"":
                reaped_at = time.monotonic() - start
        except BlockingIOError:
            pass
    time.sleep(0.1)
active.close()
silent.close()
if reaped_at is None:
    sys.exit("daemon_smoke: silent client not reaped within 3 s")
print(f"daemon_smoke: silent client reaped after {reaped_at:.2f} s; active client "
      f"got {answers} --local answers in {time.monotonic() - start:.2f} s")
EOF
idle_stats=$(idle_ctl stats) || fail "STATS (idle daemon)"
case "$idle_stats" in *" reaped_idle=1 "*) ;; *) fail "STATS after reap: '$idle_stats'" ;; esac
# A lone silent client: no other traffic wakes the loop, so only the idle
# deadline the loop tick returns can reap it.
python3 - "$WORK/idle_ports.txt" <<'EOF' || fail "lone idle client"
import socket
import sys
import time

ports = dict(token.split("=") for token in open(sys.argv[1]).read().split())
start = time.monotonic()
with socket.create_connection(("127.0.0.1", int(ports["tcp"])), timeout=3) as lone:
    try:
        if lone.recv(1) != b"":
            sys.exit("daemon_smoke: lone idle client got data, want EOF")
    except socket.timeout:
        sys.exit("daemon_smoke: lone idle client not reaped within 3 s")
print(f"daemon_smoke: lone silent client reaped after {time.monotonic() - start:.2f} s")
EOF
idle_stats=$(idle_ctl stats) || fail "STATS (idle daemon)"
case "$idle_stats" in *" reaped_idle=2 "*) ;; *) fail "STATS after lone reap: '$idle_stats'" ;; esac
# validate_obs --daemon also wants a rejected line, one good and one
# failed swap in the dump.
if idle_ctl bogus-command > /dev/null 2>&1; then
  fail "malformed command exited 0 (idle daemon)"
fi
idle_ctl swap "$WORK/v42.snap" | grep -q "^OK SWAP version=42" || fail "SWAP (idle daemon)"
if idle_ctl swap /nonexistent.snap > /dev/null 2>&1; then
  fail "bad SWAP exited 0 (idle daemon)"
fi
idle_ctl quit | grep -q "^OK BYE$" || fail "QUIT reply (idle daemon)"
for _ in $(seq 1 100); do
  kill -0 "$DAEMON_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then
  fail "idle turtled still running after QUIT"
fi
wait "$DAEMON_PID" || fail "idle turtled exited non-zero"
DAEMON_PID=
python3 scripts/validate_obs.py --metrics "$WORK/idle_metrics.json" --daemon \
  || fail "idle daemon dump failed validate_obs.py --daemon"
echo "daemon_smoke: idle clients reaped over real sockets, beside an active client and alone"

echo "daemon_smoke: OK"
