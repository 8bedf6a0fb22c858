#!/usr/bin/env bash
# Offline CI gate: build, test, lint, format. No network access required.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test -q"
cargo test --workspace -q --offline

echo "==> cargo test -q --release"
cargo test --workspace -q --release --offline

echo "==> perfbench digests (benchmark workloads stay bit-identical)"
# The benchmark's own correctness check: each perfbench workload's
# simulated-result digest for seeds 0-2 must equal its line in
# perfbench/digests.txt, so a change meant to move only host time cannot
# move a simulated result unnoticed. Then perfbench's own test suite.
while read -r workload seed _; do
    want="$(grep -E "^$workload $seed " perfbench/digests.txt)"
    got="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml \
        -- --workload "$workload" --seed "$seed" --print-digest)"
    [ "$got" = "$want" ] || {
        echo "ci: perfbench digest mismatch: want '$want', got '$got'" >&2
        exit 1
    }
done < <(grep -E '^[a-z0-9_]+ [0-2] ' perfbench/digests.txt)
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> conformance smoke (adversarial schedules, bounded seeds)"
# Bounded-time schedule-fuzzing pass: the virtual-scheduler matrix from
# crates/conformance runs in release with a pinned seed count per
# adversarial schedule so wall time stays inside the CI budget. Raise
# SLACKSIM_CONFORMANCE_SEEDS locally for a deeper exploration.
SLACKSIM_CONFORMANCE_SEEDS=4 \
    cargo test -p slacksim-conformance -q --release --offline

echo "==> delta-checkpoint smoke (bounded slack, full-vs-delta oracle + CLI)"
# The delta-vs-full state-equality oracle (DESIGN §11-§12) on the
# deterministic engine — delta-restored state must be bit-identical to a
# full-clone restore across the speculation matrix — plus one end-to-end
# threaded delta-mode run through the release binary under a greedy
# (bounded) scheme.
cargo test -p slacksim-conformance -q --release --offline \
    --test conformance delta_checkpoints_match_full_clones_exactly
./target/release/slacksim --scheme bounded --bound 16 --engine threaded \
    --commit 20000 --checkpoint 2000 --checkpoint-mode delta --rollback all \
    > /dev/null

echo "==> kill-and-resume smoke (durable snapshots, SIGKILL mid-run)"
# Crash-safety proof on the release binary (DESIGN §13): a threaded
# cycle-by-cycle run persisting checkpoints is SIGKILLed as soon as the
# first snapshot lands, resumed from the surviving cp-* file, and must
# report the exact simulated outcome of an uninterrupted baseline.
# The in-process twin of this check (both engines, refusal paths) runs
# in tests/persist_resume.rs; this stage exercises the shipped binary
# end to end, kill included.
cps_dir="$(mktemp -d /tmp/slacksim-ci-cps.XXXXXX)"
resume_flags=(--scheme cc --engine threaded --cores 2 --commit 200000 --checkpoint 700)
baseline="$(./target/release/slacksim "${resume_flags[@]}" \
    | grep -E '^(execution time|committed|violations)')"
./target/release/slacksim "${resume_flags[@]}" --save-state "$cps_dir" \
    > /dev/null 2>&1 &
victim=$!
for _ in $(seq 1 2000); do
    compgen -G "$cps_dir/cp-*[0-9]" > /dev/null && break
    kill -0 "$victim" 2> /dev/null || break
    sleep 0.005
done
kill -KILL "$victim" 2> /dev/null || true
wait "$victim" 2> /dev/null || true
snapshot="$(ls "$cps_dir"/cp-* | grep -v '\.tmp$' | sort | tail -n 1)"
resumed="$(./target/release/slacksim "${resume_flags[@]}" --resume "$snapshot" \
    | grep -E '^(execution time|committed|violations)')"
[ "$baseline" = "$resumed" ] || {
    echo "ci: resumed report diverged from uninterrupted baseline" >&2
    printf 'baseline:\n%s\nresumed:\n%s\n' "$baseline" "$resumed" >&2
    exit 1
}
rm -rf "$cps_dir"

echo "==> directory smoke (64-core sharded uncore, SIGKILL kill-and-resume)"
# Directory-uncore proof on the release binary (DESIGN §17): a 64-core
# run — four times past the snooping bus's cap — through the sharded
# MESI directory banks, first uninterrupted, then SIGKILLed as soon as
# the first durable snapshot lands and resumed from it. The resumed
# report must match the uninterrupted baseline exactly: bank states,
# sharer sets and per-bank monitors all cross the versioned byte
# format. The in-process conformance twin ({16,64} cores, all three
# engines) runs in crates/conformance; this stage exercises the
# shipped binary end to end at directory scale, kill included. The
# uninterrupted run also writes a live heartbeat and a profile CSV,
# which must validate through `slacksim report`.
dir_cps="$(mktemp -d /tmp/slacksim-ci-dir.XXXXXX)"
dir_art="$(mktemp -d /tmp/slacksim-ci-dir-art.XXXXXX)"
dir_flags=(--uncore directory --cores 64 --benchmark fft --scheme cc \
    --engine threaded --commit 200000 --checkpoint 700)
dir_baseline="$(./target/release/slacksim "${dir_flags[@]}" \
    --profile --profile-csv "$dir_art/prof.csv" \
    --live-status "$dir_art/live.json" --live-every 50 \
    | grep -E '^(execution time|committed|violations)')"
./target/release/slacksim report "$dir_art/live.json" "$dir_art/prof.csv" \
    > /dev/null || {
    echo "ci: directory run artifacts failed report validation" >&2; exit 1; }
rm -rf "$dir_art"
./target/release/slacksim "${dir_flags[@]}" --save-state "$dir_cps" \
    > /dev/null 2>&1 &
victim=$!
for _ in $(seq 1 2000); do
    compgen -G "$dir_cps/cp-*[0-9]" > /dev/null && break
    kill -0 "$victim" 2> /dev/null || break
    sleep 0.005
done
kill -KILL "$victim" 2> /dev/null || true
wait "$victim" 2> /dev/null || true
dir_snapshot="$(ls "$dir_cps"/cp-* | grep -v '\.tmp$' | sort | tail -n 1)"
dir_resumed="$(./target/release/slacksim "${dir_flags[@]}" --resume "$dir_snapshot" \
    | grep -E '^(execution time|committed|violations)')"
[ "$dir_baseline" = "$dir_resumed" ] || {
    echo "ci: directory resumed report diverged from uninterrupted baseline" >&2
    printf 'baseline:\n%s\nresumed:\n%s\n' "$dir_baseline" "$dir_resumed" >&2
    exit 1
}
rm -rf "$dir_cps"

echo "==> bench smoke (engine_throughput, short run, checked against baseline)"
# Short run into a scratch path, compared against the committed
# BENCH_threaded.json: every engine/scheme row must keep at least 0.25x
# the committed median throughput or the bench exits non-zero. The
# tolerance is deliberately generous — the smoke run's commit target is
# ~7x smaller than the committed full run's, so fixed startup costs weigh
# more and shared CI hosts add noise — but it still catches the silent
# multi-x regressions that previously drifted past this stage unnoticed.
smoke_out="$(mktemp /tmp/BENCH_threaded_smoke.XXXXXX.json)"
smoke_out_batched="$(mktemp /tmp/BENCH_batched_smoke.XXXXXX.json)"
smoke_out_directory="$(mktemp /tmp/BENCH_directory_smoke.XXXXXX.json)"
# Paths must be absolute: cargo bench runs the binary with the package
# directory as its working directory, not the repo root.
SLACKSIM_BENCH_SMOKE=1 SLACKSIM_BENCH_OUT="$smoke_out" \
SLACKSIM_BENCH_OUT_BATCHED="$smoke_out_batched" \
SLACKSIM_BENCH_OUT_DIRECTORY="$smoke_out_directory" \
SLACKSIM_BENCH_BASELINE="$PWD/BENCH_threaded.json" \
SLACKSIM_BENCH_BASELINE_BATCHED="$PWD/BENCH_batched.json" \
SLACKSIM_BENCH_BASELINE_DIRECTORY="$PWD/BENCH_directory.json" \
SLACKSIM_BENCH_TOLERANCE=0.25 \
    cargo bench -p slacksim-bench --bench engine_throughput --offline
test -s "$smoke_out" || { echo "ci: bench smoke produced no output" >&2; exit 1; }
test -s "$smoke_out_batched" || {
    echo "ci: bench smoke produced no batched output" >&2; exit 1; }
test -s "$smoke_out_directory" || {
    echo "ci: bench smoke produced no directory output" >&2; exit 1; }
rm -f "$smoke_out" "$smoke_out_batched" "$smoke_out_directory"

echo "==> profiler + live-telemetry smoke (artifact validity, overhead gate)"
# Self-profiling proof on the release binary (DESIGN §14): a profiled
# run with a live status file must produce a host-time table covering
# the run, a valid heartbeat and a valid profile CSV — both validated
# through `slacksim report`, which parses them with the in-tree
# obs::json parser and exits non-zero on any malformed artifact. Then
# the overhead gate: profiling must cost ≤3% throughput against the
# same binary uninstrumented, measured as the best ratio over five
# interleaved plain/profiled pairs so shared-host load drift cancels
# within each pair (the bench-smoke stage above already anchors
# absolute throughput to BENCH_threaded.json). The
# gate runs the bounded-slack operating point — span cost amortizes
# over a burst of cycles there. Cycle-by-cycle is the worst case for
# span density (every core crosses ~4 span boundaries per simulated
# cycle, each comparable in cost to one model tick; DESIGN §14), so
# its overhead is printed informationally rather than gated. The gate
# bounds the *fraction*, so every hot-path speedup tightens it for
# free: the batched-engine PR cut per-cycle model cost ~40% without
# touching span cost, which moved the measured fraction from ~1.5% to
# ~2.5% — the allowance tracks that (same absolute span cost, smaller
# denominator), not a profiler regression.
prof_dir="$(mktemp -d /tmp/slacksim-ci-prof.XXXXXX)"
prof_flags=(--scheme cc --engine threaded --cores 8 --commit 500000)
gate_flags=(--scheme bounded --bound 64 --engine threaded --cores 8 --commit 500000)
prof_out="$(./target/release/slacksim "${prof_flags[@]}" --profile \
    --profile-csv "$prof_dir/prof.csv" --live-status "$prof_dir/live.json" \
    --live-every 50)"
grep -q "host-time profile:" <<< "$prof_out" || {
    echo "ci: profiled run printed no host-time table" >&2; exit 1; }
test -s "$prof_dir/live.json" || {
    echo "ci: live run left no status file" >&2; exit 1; }
[ "$(wc -l < "$prof_dir/live.json")" -eq 1 ] || {
    echo "ci: status file must hold exactly one heartbeat line" >&2; exit 1; }
./target/release/slacksim report "$prof_dir/live.json" "$prof_dir/prof.csv" \
    > /dev/null || {
    echo "ci: emitted artifacts failed report validation" >&2; exit 1; }
speed_of() { # one in-process kcycles/s sample: speed_of FLAG...
    ./target/release/slacksim "$@" 2> /dev/null \
        | awk '/^speed/ { print int($3) }'
}
best_of() { # best of 5 samples
    local best=0 s
    for _ in 1 2 3 4 5; do
        s="$(speed_of "$@")"
        [ "$s" -gt "$best" ] && best="$s"
    done
    echo "$best"
}
cc_plain="$(best_of "${prof_flags[@]}")"
cc_prof="$(best_of "${prof_flags[@]}" --profile)"
echo "    cc span-density worst case (informational): plain ${cc_plain}, profiled ${cc_prof} kcycles/s"
# Interleave plain/profiled pairs and gate on the best per-pair ratio:
# shared-host load drifts on a timescale of seconds, so two separate
# best-of-N blocks can sample different load regimes and report the
# drift as profiler overhead. Back-to-back pairs see the same regime,
# and the cleanest pair bounds the true overhead from above.
best_ratio=0
plain_speed=0
prof_speed=0
for _ in 1 2 3 4 5; do
    p="$(speed_of "${gate_flags[@]}")"
    q="$(speed_of "${gate_flags[@]}" --profile --live-status "$prof_dir/live.json")"
    [ "$p" -gt 0 ] || continue
    r="$((q * 100 / p))"
    if [ "$r" -gt "$best_ratio" ]; then
        best_ratio="$r" plain_speed="$p" prof_speed="$q"
    fi
done
echo "    bounded-64 gate: plain ${plain_speed}, profiled ${prof_speed} kcycles/s (best pair, ${best_ratio}%)"
[ "$best_ratio" -ge 97 ] || {
    echo "ci: profiler overhead exceeds 3% (plain ${plain_speed}, profiled ${prof_speed} kcycles/s)" >&2
    exit 1
}
rm -rf "$prof_dir"

echo "==> campaign smoke (6-job sweep, kill-free resume, report validation)"
# Campaign-runner proof on the release binary (DESIGN §16): a tiny
# 6-job design-space sweep — the {cc, bounded, quantum} x 2-seed grid
# emitted by the bench harness's gen_sweep — runs to completion on 3
# workers, its streamed and final aggregates validate through
# `slacksim report`, and an immediate rerun against the same directory
# skips every settled job. The SIGKILL variant of this stage (campaign
# kill-and-resume, aggregate bit-identity) runs in tests/campaign.rs.
camp_dir="$(mktemp -d /tmp/slacksim-ci-camp.XXXXXX)"
./target/release/gen_sweep --commit 20000 --cores 2 > "$camp_dir/sweep.json"
./target/release/slacksim sweep --spec "$camp_dir/sweep.json" \
    --dir "$camp_dir/campaign" --workers 3 \
    --live-status "$camp_dir/beats.jsonl" --live-every 50 > /dev/null
[ "$(tail -n +2 "$camp_dir/campaign/aggregate.csv" | wc -l)" -eq 6 ] || {
    echo "ci: campaign aggregate must hold 6 job rows" >&2; exit 1; }
./target/release/slacksim report "$camp_dir/campaign/aggregate.csv" \
    "$camp_dir/campaign/aggregate.jsonl" "$camp_dir/campaign/manifest.json" \
    "$camp_dir/beats.jsonl" > /dev/null || {
    echo "ci: campaign artifacts failed report validation" >&2; exit 1; }
rerun="$(./target/release/slacksim sweep --dir "$camp_dir/campaign")"
grep -q "6 skipped" <<< "$rerun" || {
    echo "ci: campaign rerun must skip all settled jobs, got: $rerun" >&2
    exit 1
}
rm -rf "$camp_dir"

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "ci: all green"
