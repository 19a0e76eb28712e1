#!/usr/bin/env bash
# Repo verification gate: release build, full test suite, and lints.
# Hermetic — never touches the network.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
# The tests run under a TMPDIR of their own, which must hold no serve
# scheduler checkpoint directory afterwards: each test removes its own.
TEST_TMP="$(mktemp -d)"
trap 'rm -rf "$TEST_TMP"' EXIT
TMPDIR="$TEST_TMP" cargo test -q
if ls "$TEST_TMP" | grep -Eq '^beatnik-serve-(gang-)?test-'; then
    echo "a serve test left its checkpoint directory behind:"
    ls "$TEST_TMP"
    exit 1
fi
rm -rf "$TEST_TMP"

echo "== cargo check benchmark/ =="
# The benchmark crate sits outside the root workspace, so the build and
# test steps above never compile it; a removed API its probes call must
# fail here, not first in a benchmark run.
cargo check --offline --manifest-path benchmark/Cargo.toml

if cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy -- -D warnings =="
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "== clippy not installed; skipping lints =="
fi

echo "== rocketrig --profile smoke (4 ranks, all three solver orders) =="
# Each order must emit a parseable Chrome trace containing the solver
# phases that order exercises; profile_check exits nonzero otherwise.
PROF_DIR="$(mktemp -d)"
trap 'rm -rf "$PROF_DIR"' EXIT
RIG=target/release/rocketrig
CHECK=target/release/profile_check

# --flows additionally requires causal flow events (send->recv "s"/"f"
# pairs), >=1 recorded flow edge, and zero orphan receives per trace.
"$RIG" --order low --n 16 --steps 2 --ranks 4 \
    --profile "$PROF_DIR/low.json" --profile-summary \
    --metrics "$PROF_DIR/low-metrics.om" > "$PROF_DIR/low-summary.txt"
"$CHECK" --flows "$PROF_DIR/low.json" step dfft-forward dfft-inverse \
    dfft-redistribute
grep -q -- '-- stragglers:' "$PROF_DIR/low-summary.txt"

"$RIG" --order medium --n 16 --steps 2 --ranks 4 \
    --profile "$PROF_DIR/medium.json" \
    --metrics "$PROF_DIR/medium-metrics.om" >/dev/null
"$CHECK" --flows "$PROF_DIR/medium.json" step br-cutoff br-cutoff-bin \
    br-cutoff-pairs migrate-to-spatial halo-points migrate-home dfft-forward \
    dfft-redistribute

"$RIG" --order high --solver exact --n 12 --steps 2 --ranks 4 \
    --profile "$PROF_DIR/high.json" \
    --metrics "$PROF_DIR/high-metrics.om" >/dev/null
"$CHECK" --flows "$PROF_DIR/high.json" step br-exact br-ring-stage halo

for stem in low medium high; do
    test -s "$PROF_DIR/$stem-phases.csv"
    test -s "$PROF_DIR/$stem-skew.csv"
done

echo "== live-metrics smoke: OpenMetrics + comm-matrix + critical path =="
# Every order's metrics file must be well-formed OpenMetrics carrying
# the comm-matrix families, with the matrix CSV and per-step critical
# path alongside it.
for stem in low medium high; do
    om="$PROF_DIR/$stem-metrics.om"
    test -s "$om"
    tail -c 8 "$om" | grep -q '# EOF'
    grep -q '^# TYPE beatnik_comm_bytes counter' "$om"
    grep -q 'beatnik_comm_matrix_bytes_total{' "$om"
    grep -q 'beatnik_phase_entries_total{' "$om"
    grep -q 'beatnik_comm_straggler_checks_total' "$om"
    test -s "$PROF_DIR/$stem-metrics.om.json"
    matrix="$PROF_DIR/$stem-metrics-matrix.csv"
    test -s "$matrix"
    head -1 "$matrix" | grep -q '^src,dst,phase,algo,messages,bytes$'
    test -s "$PROF_DIR/critical-path.json"
    grep -q '"critical_rank"' "$PROF_DIR/critical-path.json"
done

echo "== hostile-parameter smoke: non-finite values fail validation =="
# Every ordered comparison with NaN is false, so a range check alone
# lets it through to run NaN steps. Each run must exit nonzero and name the
# parameter; output is captured to a file so pipefail holds.
hostile() {
    local flag="$1" value="$2"
    if "$RIG" "$flag" "$value" --n 16 --steps 2 --ranks 1 \
        > "$PROF_DIR/hostile.log" 2>&1; then
        echo "rocketrig $flag $value exited 0"
        exit 1
    fi
    grep -q "${flag#--} must be finite" "$PROF_DIR/hostile.log"
}
hostile --dt nan
hostile --epsilon inf

echo "== chaos smoke: kill rank 2 at step 5, relaunch 3 ranks from the step-4 checkpoint =="
# The run must exit 0 despite the death, report the injected kill and
# the relaunch of the 3 survivors from the step-4 checkpoint, and stamp
# the relaunch's recovery phase into the Chrome trace.
# Capture to a file rather than piping into grep -q: -q exits at first
# match and the resulting broken pipe would fail the run under pipefail.
"$RIG" --n 16 --steps 8 --ranks 4 --faults kill:r2@step5 \
    --checkpoint-every 2 --out "$PROF_DIR/ftout" \
    --profile "$PROF_DIR/ftout/trace.json" > "$PROF_DIR/ftout.log"
grep -q 'ranks killed by fault injection: \[2\]' "$PROF_DIR/ftout.log"
grep -q '"recovery"' "$PROF_DIR/ftout/trace.json"
grep -q 'relaunched on 3 ranks from the step-4 checkpoint' "$PROF_DIR/ftout.log"
test -s "$PROF_DIR/ftout/fault-events.json"

echo "== transport backend matrix: thread / shmem / tcp loopback =="
# The same small run must complete on every backend, both via the CLI
# flag and via BEATNIK_TRANSPORT; --procs gives each rank its own OS
# process over the wire backends.
"$RIG" --print-config > "$PROF_DIR/config.txt"
grep -Eq 'transport += thread \(BEATNIK_TRANSPORT\)' "$PROF_DIR/config.txt"
BEATNIK_TRANSPORT=tcp "$RIG" --print-config > "$PROF_DIR/config-tcp.txt"
grep -Eq 'transport += tcp' "$PROF_DIR/config-tcp.txt"
for backend in thread shmem tcp; do
    "$RIG" --transport "$backend" --n 16 --steps 2 --ranks 4 \
        --log "$PROF_DIR/$backend.json" >/dev/null
    test -s "$PROF_DIR/$backend.json"
done
BEATNIK_TRANSPORT=shmem "$RIG" --n 16 --steps 2 --ranks 4 >/dev/null
# A shmem world of processes keeps its ring files in a directory under
# TMPDIR that the launching process removes when the world ends; the
# shmem-procs runs below get a TMPDIR of their own, which must hold no
# beatnik-proc-* directory afterwards.
PROCS_TMP="$PROF_DIR/procs-tmp"
mkdir -p "$PROCS_TMP"
TMPDIR="$PROCS_TMP" "$RIG" --transport shmem --procs --n 16 --steps 2 --ranks 2 \
    > "$PROF_DIR/procs-shmem.log"
grep -q 'process-ranks over shmem' "$PROF_DIR/procs-shmem.log"
"$RIG" --transport tcp --procs --n 16 --steps 2 --ranks 2 \
    > "$PROF_DIR/procs-tcp.log"
grep -q 'process-ranks over tcp' "$PROF_DIR/procs-tcp.log"
# The backends must agree bit for bit: one 2-rank low-order job on the
# thread backend, over shmem and TCP loopback (each rank drains its own
# rings or sockets) and over shmem and TCP with a process per rank must
# write identical VTK files at every step, so a progress bug that
# reorders or drops frames fails here.
for run in thread shmem shmem-procs tcp tcp-procs; do
    args=(--transport "${run%-procs}")
    [ "$run" != "${run%-procs}" ] && args+=(--procs)
    TMPDIR="$PROCS_TMP" "$RIG" "${args[@]}" --order low --n 16 --steps 4 --ranks 2 \
        --vtk-every 1 --out "$PROF_DIR/agree-$run" >/dev/null
done
# Tracing must not change a bit either: the same job, profiled.
"$RIG" --order low --n 16 --steps 4 --ranks 2 --vtk-every 1 \
    --out "$PROF_DIR/agree-traced" --profile "$PROF_DIR/agree-traced/trace.json" >/dev/null
test "$(ls "$PROF_DIR/agree-thread" | grep -c '\.vtk$')" -eq 4
for f in "$PROF_DIR"/agree-thread/*.vtk; do
    for run in shmem shmem-procs tcp tcp-procs traced; do
        cmp "$f" "$PROF_DIR/agree-$run/${f##*/}"
    done
done
# Rank counts must agree bit for bit too: the low-order 24x24 job on
# 3, 4 and 6 thread ranks, and on 3 ranks over TCP loopback (whose
# received blocks the transport allocates), writes the 1-rank run's VTK
# files at every step.
for run in 1 3 4 6 3-tcp; do
    args=(--ranks "${run%-tcp}")
    [ "$run" != "${run%-tcp}" ] && args+=(--transport tcp)
    "$RIG" "${args[@]}" --order low --n 24 --steps 4 --vtk-every 1 \
        --out "$PROF_DIR/ranks-$run" >/dev/null
done
test "$(ls "$PROF_DIR/ranks-1" | grep -c '\.vtk$')" -eq 4
for f in "$PROF_DIR"/ranks-1/*.vtk; do
    for run in 3 4 6 3-tcp; do
        cmp "$f" "$PROF_DIR/ranks-$run/${f##*/}"
    done
done
# The cutoff solver's migrate/halo/return alltoallv cycle must agree
# the same way: a 4-rank high-order cutoff run on the thread backend,
# over shmem and over TCP loopback writes identical VTK files at every
# step.
for backend in thread shmem tcp; do
    TMPDIR="$PROCS_TMP" "$RIG" --transport "$backend" --order high --solver cutoff \
        --deck singlemode --n 16 --steps 4 --ranks 4 --vtk-every 1 \
        --out "$PROF_DIR/cutoff-$backend" >/dev/null
done
test "$(ls "$PROF_DIR/cutoff-thread" | grep -c '\.vtk$')" -eq 4
for f in "$PROF_DIR"/cutoff-thread/*.vtk; do
    for backend in shmem tcp; do
        cmp "$f" "$PROF_DIR/cutoff-$backend/${f##*/}"
    done
done
# The same for medium order (the Z-Model's Birkhoff-Rott velocity on
# the multimode deck) and for high order with the exact solver's ring
# pass.
for run in medium:cutoff high:exact; do
    for backend in thread shmem tcp; do
        TMPDIR="$PROCS_TMP" "$RIG" --transport "$backend" --order "${run%:*}" \
            --solver "${run#*:}" --n 16 --steps 4 --ranks 4 --vtk-every 1 \
            --out "$PROF_DIR/${run%:*}-$backend" >/dev/null
    done
    test "$(ls "$PROF_DIR/${run%:*}-thread" | grep -c '\.vtk$')" -eq 4
    for f in "$PROF_DIR/${run%:*}-thread"/*.vtk; do
        for backend in shmem tcp; do
            cmp "$f" "$PROF_DIR/${run%:*}-$backend/${f##*/}"
        done
    done
done
if ls "$PROCS_TMP" | grep -q '^beatnik-proc-'; then
    echo "a shmem world left its ring directory behind:"
    ls "$PROCS_TMP"
    exit 1
fi
# An unknown --solver value must fail at the prompt and name itself.
if "$RIG" --solver tree --n 16 --steps 1 --ranks 1 \
    > "$PROF_DIR/solver-tree.log" 2>&1; then
    echo "rocketrig --solver tree exited 0"
    exit 1
fi
grep -q "unknown solver 'tree'" "$PROF_DIR/solver-tree.log"
# An FFT order on the open deck must fail at the prompt with one line,
# not panic on every rank.
if "$RIG" --order medium --deck singlemode --n 16 --steps 1 --ranks 1 \
    > "$PROF_DIR/order-deck.log" 2>&1; then
    echo "rocketrig --order medium --deck singlemode exited 0"
    exit 1
fi
grep -q "order medium needs periodic boundaries" "$PROF_DIR/order-deck.log"
# Messages larger than the socket buffers (16 MiB one way, 8 MiB both
# ways, 2 MiB alltoallv blocks) must complete on every backend; each
# test fails after 30 s instead of hanging.
cargo test -q -p beatnik-comm --test backend_matrix mib

echo "== wire-chaos smoke: seeded @link delays over 2-process tcp =="
# Frames held back on both lanes of the stream arrive late but whole and
# in order: the chaotic run's log must be byte-identical to the clean
# run's.
"$RIG" --transport tcp --procs --n 16 --steps 4 --ranks 2 \
    --log "$PROF_DIR/wire-clean.json" >/dev/null
"$RIG" --transport tcp --procs --n 16 --steps 4 --ranks 2 \
    --faults 'delay:r0>r1@link3:5ms,delay:r1>r0@link5:5ms,delay:r0>r1@link7:2ms,delay:r1>r0@link9:20ms' \
    --log "$PROF_DIR/wire-chaos.json" > "$PROF_DIR/wire-chaos.log"
grep -q 'wire chaos armed' "$PROF_DIR/wire-chaos.log"
cmp "$PROF_DIR/wire-clean.json" "$PROF_DIR/wire-chaos.json"

echo "== serve smoke: boot, 3 jobs via loadgen, scrape /metrics, SIGTERM =="
# The service must accept jobs over HTTP, run them all to completion,
# expose a well-formed OpenMetrics scrape, and drain cleanly on SIGTERM.
SERVE_ADDR=127.0.0.1:7947
"$RIG" serve --addr "$SERVE_ADDR" --pool 4 \
    --ckpt-dir "$PROF_DIR/serve-ckpt" > "$PROF_DIR/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q 'listening on' "$PROF_DIR/serve.log" && break
    sleep 0.1
done
grep -q 'listening on' "$PROF_DIR/serve.log"
target/release/loadgen --addr "$SERVE_ADDR" --jobs 3 --wait 60 \
    --expect-complete --stream-events --scrape /metrics \
    > "$PROF_DIR/serve-scrape.txt"
grep -q 'loadgen: submitted 3 jobs' "$PROF_DIR/serve-scrape.txt"
# One job's NDJSON event stream was tailed live: the final record must
# be the terminal "done" event carrying the deadline-margin verdict.
grep -q 'loadgen: streamed' "$PROF_DIR/serve-scrape.txt"
grep -Eq 'loadgen: final event .*"event":"done"' "$PROF_DIR/serve-scrape.txt"
grep -Eq 'loadgen: final event .*"deadline_margin_ms"' "$PROF_DIR/serve-scrape.txt"
grep -q 'beatnik_serve_jobs_completed_total 3' "$PROF_DIR/serve-scrape.txt"
grep -q 'beatnik_serve_pool_ranks 4' "$PROF_DIR/serve-scrape.txt"
tail -c 8 "$PROF_DIR/serve-scrape.txt" | grep -q '# EOF'
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q 'rocketrig serve: bye' "$PROF_DIR/serve.log"

echo "== zero-copy smoke: owned sends copy nothing on thread + shmem =="
# The ownership-transfer invariant across the backend matrix: a 64 KiB
# isend_owned must report bytes_copied == 0 on every backend, with the
# payload charged to the handoff counter instead.
cargo test -q -p beatnik-comm --test transport owned_sends_report_zero_copies

echo "== transport microbench -> BENCH_comm.json =="
# Asserts internally: the owned ping-pong rows copied exactly zero
# payload bytes with the full payload on the handoff counter, the slice
# ping-pong copied each payload exactly once, and the traced arms stayed within the 5% tracing-overhead budget of their
# untraced twins (median of paired traced/untraced trial ratios).
target/release/bench_comm BENCH_comm.json
test -s BENCH_comm.json
grep -q '"op": "alltoallv_owned"' BENCH_comm.json
grep -q '"transport": "shmem"' BENCH_comm.json
grep -q '"transport": "tcp"' BENCH_comm.json
grep -q '"op": "p2p_slice"' BENCH_comm.json
grep -q '"op": "p2p_owned"' BENCH_comm.json
grep -q '"op": "p2p_traced"' BENCH_comm.json
grep -q '"op": "alltoallv_owned_traced"' BENCH_comm.json
# The socket-path rows: owned ping-pong and the reshape-shaped 2-rank
# alltoallv. (No -q on the second grep: it must
# read the whole pipe, or pipefail sees the first one's SIGPIPE.)
grep -A2 '"op": "p2p_owned"' BENCH_comm.json | grep '"transport": "tcp"' >/dev/null
grep -A2 '"op": "alltoallv"' BENCH_comm.json | grep '"transport": "tcp"' >/dev/null

echo "== fault-tolerance bench -> BENCH_fault.json =="
target/release/bench_fault BENCH_fault.json
test -s BENCH_fault.json
# Asserts internally: detection_latency < 10 ms at 8 and at 16 ranks.
grep -q '"metric": "detection_latency"' BENCH_fault.json
grep -q '"metric": "recovery_time"' BENCH_fault.json
grep -q '"metric": "tcp_detection"' BENCH_fault.json

echo "== multi-tenant serve bench -> BENCH_serve.json =="
# Asserts internally: >=1 demonstrated preemption whose resumed result
# matches an uninterrupted run to 1e-8, and zero lost jobs out of 200.
target/release/bench_serve BENCH_serve.json
test -s BENCH_serve.json
grep -q '"metric": "p99_latency"' BENCH_serve.json
grep -q '"metric": "dead_gang_recovery"' BENCH_serve.json
grep -q '"metric": "deadline_miss_overrun"' BENCH_serve.json
grep -q '"metric": "deadline_margin_slack"' BENCH_serve.json
grep -q '"lost_jobs": 0' BENCH_serve.json

echo "== compute-kernel bench -> BENCH_compute.json =="
# Rows pair each fast kernel (SIMD butterflies, batched column
# transforms, fused real row transforms, r2c dfft roundtrip, owned-block
# reshape) with its measured reference so the gate pins both.
target/release/bench_compute BENCH_compute.json
test -s BENCH_compute.json
grep -q '"kernel": "fft_forward"' BENCH_compute.json
# Column transforms: butterflies across the block's rows beside the
# gather / per-line / scatter shape they replaced.
grep -A1 '"kernel": "fft_columns"' BENCH_compute.json | grep '"variant": "batched"' >/dev/null
grep -A1 '"kernel": "fft_columns"' BENCH_compute.json | grep '"variant": "per_line"' >/dev/null
# Real row transforms: the fused register-pass path beside the unfused
# route (packing copy, swap pass, one pass per stage) it replaced.
grep -A1 '"kernel": "rfft_rows"' BENCH_compute.json | grep '"variant": "fused"' >/dev/null
grep -A1 '"kernel": "rfft_rows"' BENCH_compute.json | grep '"variant": "reference"' >/dev/null
# Distributed rows: the real-field transform pair beside its complex
# twin, and the ownership-passing reshape beside the flat-buffer one.
grep -q '"variant": "r2c"' BENCH_compute.json
grep -q '"variant": "owned"' BENCH_compute.json
# Birkhoff-Rott rows: the lane-parallel all-pairs block kernel beside
# the symmetric kernel (each own-block pair once), the fused cell-sorted
# cutoff evaluation, and its two loops (distance filter, symmetric hit
# kernel over the half cover) in vector form beside their scalar bodies.
grep -A1 '"kernel": "br_pairs"' BENCH_compute.json | grep '"variant": "exact"' >/dev/null
grep -A1 '"kernel": "br_pairs"' BENCH_compute.json | grep '"variant": "symmetric"' >/dev/null
grep -q '"kernel": "br_cutoff"' BENCH_compute.json
grep -A1 '"kernel": "br_select"' BENCH_compute.json | grep '"variant": "simd"' >/dev/null
grep -A1 '"kernel": "br_hits_half"' BENCH_compute.json | grep '"variant": "simd"' >/dev/null
# Z-Model rows: what a derivatives call spends outside halo exchanges,
# transforms and the Birkhoff-Rott solve, low and high order.
grep -A1 '"kernel": "zmodel_stage"' BENCH_compute.json | grep '"variant": "low"' >/dev/null
grep -A1 '"kernel": "zmodel_stage"' BENCH_compute.json | grep '"variant": "high"' >/dev/null

echo "== bench regression gate vs crates/bench/baselines =="
# Fresh numbers above must stay under the committed-baseline ceilings
# (time-like: 2x + jitter floor; deterministic bytes: 1.10x with a
# 64-byte floor that pins the zero-copy rows at exactly zero), and some
# rows under a multiple of a row of the same fresh run: fast kernels
# against their references, socket rows against their thread twins.
target/release/bench_gate

echo "== criterion smoke: micro_br / micro_dfft =="
cargo bench --bench micro_br -- --test
cargo bench --bench micro_dfft -- --test

echo "verify: OK"
