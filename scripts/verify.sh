#!/usr/bin/env sh
# One-shot verification gate. The workspace has zero external deps, so
# everything runs --offline. Fails loudly on: formatting drift, build
# errors, test failures, any clippy warning, a similarity-engine
# perf/exactness regression (the bench smoke asserts bitwise-exact
# scores and engine >= naive speed on a small workload), a
# served-detection exactness regression (the batch smoke asserts a
# pipelined classify-batch submission byte-identical to offline
# `classify --json`), or a fault-tolerance regression (the chaos smoke
# replays the fault-injection suite — delayed/truncated/garbled/dropped/oversized
# traffic and worker panics — against a release server), or an
# observability regression (the observability smoke runs the trace-id /
# timings / metrics / flight-recorder suite — including the
# disabled-telemetry guard — then drives the release binary end to end:
# serve --metrics, submit --timings, stats --addr), or a repository-index
# regression (the index smoke bulk-enrolls a variant repository and
# asserts indexed detections byte-identical to the linear scan, with and
# without the persisted sidecar), or a benchmark correctness regression
# (the scabench smoke checks wire detections against `classify --json`
# on all five workloads, plus the watch alarm steps).
#
# A failing workspace test run does not stop the gate: every later gate
# still runs, and the script exits nonzero at the end.
set -eu

cd "$(dirname "$0")/.."

FAILED=""

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --workspace --release --offline"
cargo build --workspace --release --offline

echo "==> cargo test --workspace --offline --no-fail-fast"
cargo test --workspace -q --offline --no-fail-fast || FAILED="$FAILED workspace-tests"

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# --all-targets lints the tests, benches and examples too.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> scabench smoke"
# The benchmark at tiny counts with its correctness gate: on every
# workload the wire answers must equal `scaguard classify --json`, and
# re-run watch streams must alarm at the same steps.
bash crates/bench/src/bin/scabench/run.sh --smoke --out target/scabench/smoke > /dev/null

echo "==> similarity bench smoke"
cargo run -p sca-bench --release --offline -- --smoke

echo "==> chaos fault-injection smoke"
cargo test -p sca-serve --release --offline -q --test chaos

echo "==> observability smoke"
# The test suite covers trace-id uniqueness, envelope timings, the
# metrics/flight commands, the slow log, and the disabled-telemetry
# guard (registry stays empty, evidence still flows).
cargo test -p sca-serve --release --offline -q --test observability

# Then the release binary end to end: a live server with --metrics on,
# one traced submit, and a metrics scrape that must show the request.
OBS_DIR="$(mktemp -d)"
OBS_PID=""
cleanup_obs() {
    [ -n "$OBS_PID" ] && kill "$OBS_PID" 2>/dev/null || true
    rm -rf "$OBS_DIR"
}
trap cleanup_obs EXIT

./target/release/scaguard build-repo "$OBS_DIR/pocs.repo" >/dev/null
cat > "$OBS_DIR/target.sasm" <<'EOF'
; minimal flush+reload-style probe for the smoke
        mov r0, 0
loop:   clflush [0x1000]
        vyield
        ld r1, [0x1000]
        rdtscp r2
        add r0, 1
        cmp r0, 8
        blt loop
        halt
EOF

./target/release/scaguard serve "$OBS_DIR/pocs.repo" --metrics \
    > "$OBS_DIR/serve.log" 2>&1 &
OBS_PID=$!
ADDR=""
i=0
while [ $i -lt 100 ]; do
    ADDR="$(sed -n 's/^listening on //p' "$OBS_DIR/serve.log")"
    [ -n "$ADDR" ] && break
    sleep 0.1
    i=$((i + 1))
done
[ -n "$ADDR" ] || { echo "observability smoke: server never came up"; exit 1; }

./target/release/scaguard submit "$OBS_DIR/target.sasm" --addr "$ADDR" \
    --json --timings > "$OBS_DIR/out.json" 2> "$OBS_DIR/err.txt"
grep -q '"attack"' "$OBS_DIR/out.json" \
    || { echo "observability smoke: no detection on stdout"; exit 1; }
grep -q '^trace_id: ' "$OBS_DIR/err.txt" \
    || { echo "observability smoke: no trace id on stderr"; exit 1; }
grep -q '^timings: ' "$OBS_DIR/err.txt" \
    || { echo "observability smoke: no stage timings on stderr"; exit 1; }

./target/release/scaguard stats --addr "$ADDR" > "$OBS_DIR/stats.txt"
awk '$1 == "serve.requests" && $2 + 0 > 0 { found = 1 } END { exit !found }' \
    "$OBS_DIR/stats.txt" \
    || { echo "observability smoke: serve.requests not counted"; exit 1; }

kill "$OBS_PID" 2>/dev/null || true
OBS_PID=""

echo "==> repository index smoke"
# Bulk-enroll a variant repository with its sidecar metric index, then
# assert the indexed classify is byte-identical to --no-index (the index
# may only prune, never change a detection) — with the sidecar present,
# and again after deleting it (in-memory rebuild path).
./target/release/scaguard build-repo "$OBS_DIR/vars.repo" --variants 8 \
    > /dev/null 2>&1
[ -f "$OBS_DIR/vars.repo.idx" ] \
    || { echo "index smoke: sidecar index not written"; exit 1; }
./target/release/scaguard classify "$OBS_DIR/target.sasm" \
    --repo "$OBS_DIR/vars.repo" --json > "$OBS_DIR/indexed.json"
./target/release/scaguard classify "$OBS_DIR/target.sasm" \
    --repo "$OBS_DIR/vars.repo" --json --no-index > "$OBS_DIR/linear.json"
cmp -s "$OBS_DIR/indexed.json" "$OBS_DIR/linear.json" \
    || { echo "index smoke: indexed and linear detections differ"; exit 1; }
rm "$OBS_DIR/vars.repo.idx"
./target/release/scaguard classify "$OBS_DIR/target.sasm" \
    --repo "$OBS_DIR/vars.repo" --json > "$OBS_DIR/rebuilt.json" 2>/dev/null
cmp -s "$OBS_DIR/rebuilt.json" "$OBS_DIR/linear.json" \
    || { echo "index smoke: missing-sidecar rebuild diverges"; exit 1; }

echo "==> batch smoke"
# A release server must answer a pipelined 32-program classify-batch
# submission with detections byte-identical to the offline pipeline,
# program for program, without shedding or panicking. Re-enroll the
# variant repository first: the index smoke above deleted its sidecar.
./target/release/scaguard build-repo "$OBS_DIR/vars.repo" --variants 8 \
    > /dev/null 2>&1
mkdir "$OBS_DIR/fleet"
i=0
while [ $i -lt 32 ]; do
    cp "$OBS_DIR/target.sasm" "$OBS_DIR/fleet/prog$i.sasm"
    i=$((i + 1))
done

./target/release/scaguard serve "$OBS_DIR/vars.repo" --metrics \
    > "$OBS_DIR/batch.log" 2>&1 &
OBS_PID=$!
ADDR=""
i=0
while [ $i -lt 100 ]; do
    ADDR="$(sed -n 's/^listening on //p' "$OBS_DIR/batch.log")"
    [ -n "$ADDR" ] && break
    sleep 0.1
    i=$((i + 1))
done
[ -n "$ADDR" ] || { echo "batch smoke: server never came up"; exit 1; }

./target/release/scaguard submit "$OBS_DIR"/fleet/prog*.sasm \
    --batch 8 --addr "$ADDR" --json > "$OBS_DIR/batched.json"
[ "$(wc -l < "$OBS_DIR/batched.json")" -eq 32 ] \
    || { echo "batch smoke: expected 32 batched detections"; exit 1; }

: > "$OBS_DIR/offline.json"
for prog in "$OBS_DIR"/fleet/prog*.sasm; do
    ./target/release/scaguard classify "$prog" \
        --repo "$OBS_DIR/vars.repo" --json >> "$OBS_DIR/offline.json"
done
cmp -s "$OBS_DIR/batched.json" "$OBS_DIR/offline.json" \
    || { echo "batch smoke: batched detections diverge from offline"; exit 1; }

./target/release/scaguard stats --addr "$ADDR" > "$OBS_DIR/batch-stats.txt"
awk '$1 == "serve.shed" && $2 + 0 > 0 { bad = 1 } END { exit bad }' \
    "$OBS_DIR/batch-stats.txt" \
    || { echo "batch smoke: requests were shed"; exit 1; }
awk '$1 == "serve.panics" && $2 + 0 > 0 { bad = 1 } END { exit bad }' \
    "$OBS_DIR/batch-stats.txt" \
    || { echo "batch smoke: worker panics recorded"; exit 1; }

kill "$OBS_PID" 2>/dev/null || true
OBS_PID=""

echo "==> streaming watch smoke"
# A live release server, then `scaguard watch` end to end: the enrolled
# FR PoC must raise its ALARM before the trace ends (the alarm line
# precedes the trace-complete line), and a benign program must stream
# to the end without one.
cargo run --release --offline --example dump_pocs -- "$OBS_DIR/poc-asm" \
    > /dev/null
./target/release/scaguard serve "$OBS_DIR/pocs.repo" \
    > "$OBS_DIR/watch.log" 2>&1 &
OBS_PID=$!
ADDR=""
i=0
while [ $i -lt 100 ]; do
    ADDR="$(sed -n 's/^listening on //p' "$OBS_DIR/watch.log")"
    [ -n "$ADDR" ] && break
    sleep 0.1
    i=$((i + 1))
done
[ -n "$ADDR" ] || { echo "watch smoke: server never came up"; exit 1; }

./target/release/scaguard watch "$OBS_DIR/poc-asm/FR-F.sasm" --addr "$ADDR" \
    --victim shared:3 > "$OBS_DIR/watch-attack.txt" 2>/dev/null
grep -q '^ALARM ' "$OBS_DIR/watch-attack.txt" \
    || { echo "watch smoke: no alarm on the FR PoC"; exit 1; }
grep -q '^trace complete' "$OBS_DIR/watch-attack.txt" \
    || { echo "watch smoke: stream never finished"; exit 1; }
alarm_line="$(grep -n '^ALARM ' "$OBS_DIR/watch-attack.txt" | head -1 | cut -d: -f1)"
done_line="$(grep -n '^trace complete' "$OBS_DIR/watch-attack.txt" | head -1 | cut -d: -f1)"
[ "$alarm_line" -lt "$done_line" ] \
    || { echo "watch smoke: alarm did not precede end of trace"; exit 1; }

cat > "$OBS_DIR/benign.sasm" <<'EOF'
; arithmetic-only loop: nothing cache-timing shaped
        mov r0, 0
        mov r1, 1
bloop:  add r1, 3
        mul r1, 2
        add r0, 1
        cmp r0, 64
        blt bloop
        halt
EOF
./target/release/scaguard watch "$OBS_DIR/benign.sasm" --addr "$ADDR" \
    > "$OBS_DIR/watch-benign.txt" 2>/dev/null
grep -q '^ALARM ' "$OBS_DIR/watch-benign.txt" \
    && { echo "watch smoke: benign stream alarmed"; exit 1; }
grep -q 'benign' "$OBS_DIR/watch-benign.txt" \
    || { echo "watch smoke: no benign verdict"; exit 1; }

kill "$OBS_PID" 2>/dev/null || true
OBS_PID=""

echo "==> reactor smoke"
# The event-driven connection layer end to end: a release server holds a
# fleet of idle parked connections (threads stay O(workers); the fleet
# example fails if any connection is refused or dropped) while classify,
# stats, and watch traffic interleaves on fresh connections, and the
# conns_active gauge must count the herd. The chaos suite and the batch
# smoke above already gate the same layer's fault and clean paths.
FLEET_N=256
./target/release/scaguard serve "$OBS_DIR/pocs.repo" --metrics \
    --max-connections 4096 > "$OBS_DIR/reactor.log" 2>&1 &
OBS_PID=$!
ADDR=""
i=0
while [ $i -lt 100 ]; do
    ADDR="$(sed -n 's/^listening on //p' "$OBS_DIR/reactor.log")"
    [ -n "$ADDR" ] && break
    sleep 0.1
    i=$((i + 1))
done
[ -n "$ADDR" ] || { echo "reactor smoke: server never came up"; exit 1; }

cargo run -p sca-serve --release --offline --example idle_fleet -- \
    "$ADDR" "$FLEET_N" 30 > "$OBS_DIR/fleet.log" 2>&1 &
FLEET_PID=$!
i=0
while [ $i -lt 300 ]; do
    grep -q "^held $FLEET_N connections" "$OBS_DIR/fleet.log" && break
    kill -0 "$FLEET_PID" 2>/dev/null \
        || { echo "reactor smoke: fleet exited early"; cat "$OBS_DIR/fleet.log"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
grep -q "^held $FLEET_N connections" "$OBS_DIR/fleet.log" \
    || { echo "reactor smoke: fleet never parked"; exit 1; }

# Work traffic flows between the parked herd, byte-identical as ever.
./target/release/scaguard submit "$OBS_DIR/target.sasm" --addr "$ADDR" \
    --json > "$OBS_DIR/reactor-submit.json"
./target/release/scaguard classify "$OBS_DIR/target.sasm" \
    --repo "$OBS_DIR/pocs.repo" --json > "$OBS_DIR/reactor-offline.json"
cmp -s "$OBS_DIR/reactor-submit.json" "$OBS_DIR/reactor-offline.json" \
    || { echo "reactor smoke: wire detection diverges under the idle herd"; exit 1; }

./target/release/scaguard watch "$OBS_DIR/poc-asm/FR-F.sasm" --addr "$ADDR" \
    --victim shared:3 > "$OBS_DIR/reactor-watch.txt" 2>/dev/null
grep -q '^trace complete' "$OBS_DIR/reactor-watch.txt" \
    || { echo "reactor smoke: watch stream died under the idle herd"; exit 1; }

./target/release/scaguard stats --addr "$ADDR" > "$OBS_DIR/reactor-stats.txt"
awk -v n="$FLEET_N" \
    '$1 == "serve.conns_active" && $2 + 0 >= n { found = 1 } END { exit !found }' \
    "$OBS_DIR/reactor-stats.txt" \
    || { echo "reactor smoke: serve.conns_active does not count the herd"; exit 1; }
awk '$1 == "serve.timeouts" && $2 + 0 > 0 { bad = 1 } END { exit bad }' \
    "$OBS_DIR/reactor-stats.txt" \
    || { echo "reactor smoke: parked connections were timed out"; exit 1; }

kill "$FLEET_PID" 2>/dev/null || true
kill "$OBS_PID" 2>/dev/null || true
OBS_PID=""

if [ -n "$FAILED" ]; then
    echo "verify: FAILED:$FAILED"
    exit 1
fi
echo "verify: OK"
