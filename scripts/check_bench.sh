#!/usr/bin/env bash
# CI bench-regression gate: compares a QUICK smoke run's key bench groups
# against the last committed BENCH_NNNN.json and fails on a >25 %
# regression.
#
# Usage:
#   scripts/check_bench.sh SMOKE_JSON [BASELINE_JSON]
#
#   SMOKE_JSON     output of `QUICK=1 SMOKE_OUT=... scripts/run_benches.sh`
#   BASELINE_JSON  defaults to the highest-numbered committed BENCH_*.json
#
# What is gated: the *within-group speedup ratios* of the key groups —
#   matmul/512           blocked vs seed_ikj
#   matmul/512           blocked (dispatched SIMD) vs blocked_scalar
#   matmul/rejoin        the host join's product (131072 x 64 times
#                        64 x 16, read in place 256 rows at a time) must
#                        run at >= 0.6 x the blocked/512 rate. Both do 2 * 512^3 flops, so the
#                        ratio of medians is the ratio of GFLOPS. On the
#                        2-vCPU reference host, alternating runs read
#                        0.80-1.29x with the unpacked n <= 16 driver and
#                        0.37-0.44x with the packed driver it replaced
#                        (1.09-1.47x vs 0.44-0.55x with the kernel forced
#                        to avx2), so the floor sits below the first spread
#                        and above the second: it catches the rejoin shape
#                        falling back to packing
#   matmul/narrow_deep   NMF's D * Y at the paper's shape (1024 x 1024
#                        times 1024 x 10) on the unpacked n <= 16 driver,
#                        which sums one chain per KC panel in the packed
#                        driver's order, >= 1.6 x the same product through
#                        an Op::Trans operand (narrow_deep_packed), which
#                        only the packed driver takes. Same bits, same
#                        process, so the ratio is the driver choice itself.
#                        On the 2-vCPU reference host, six alternating runs
#                        read 2.26-2.78x with the unpacked driver past KC and
#                        0.87-1.06x before it, when k > KC stayed
#                        packed, so the floor catches that shape falling
#                        back to packing
#   cholesky_solve_rows/16  lane-blocked multi-row Cholesky solve >=
#                        MIN_SOLVE_ROWS_RATIO (default 2.0) x a loop over
#                        the single-row solve at 65 536 rows — same
#                        arithmetic, same process, so the ratio is the
#                        lane blocking itself (measured ~6x with AVX2)
#   cholesky_solve_rows/1   the same multi-row solve handed one row (a lone
#                        host join) <= 1.2 x the single-row solve of that
#                        row (blocked/1 vs per_row/1; within-run). A one-row
#                        call runs the one-lane solve in place (1.04x on
#                        the 2-vCPU reference host); the 16-lane block it
#                        replaced zeroed an 8 KiB scratch and solved
#                        fifteen zero rows beside the real one (2.09x)
#   factor/512           blocked (Golub-Kahan) SVD vs one-sided Jacobi
#   svd/512              the truncated d = 10 SVD >= 2.0 x the exact blocked
#                        SVD of the same P2PSim-like 512 x 512 matrix
#                        (truncated_d10_p2psim/512 vs exact_blocked/512).
#                        On the 2-vCPU reference host, six alternating
#                        runs read 2.96-3.30x with the Ritz-residual stop
#                        and 0.48-0.54x with the column-norm stop it
#                        replaced, so the floor sits 32 % below the first
#                        and 3.7x above the second: it catches the subspace
#                        iteration running past convergence
#   join_batch/500       batched_qr vs per_host_qr
#   streaming_update/500 incremental update vs full refit
#   streaming_update/absorb  the absorb-tier landmark step at k = 64,
#                        d = 16 moving all 64 landmarks <= 6.0 x the step
#                        moving one (absorb/64x16_all vs absorb/64x16_one;
#                        within-run, no baseline). On the 2-vCPU reference
#                        host, alternating runs read 2.7-4.5x with one Gram
#                        factorization per step and 6.0-9.5x with the
#                        per-landmark rank-1 Gram repair it replaced, so the
#                        ceiling catches per-landmark Gram work coming back
#   streaming_update/refresh  the refresh-tier landmark step (warm 2-sweep
#                        ALS refit, same shape, all 64 moved) <= 5.0 x the
#                        absorb step moving all 64 (refresh/64x16 vs
#                        absorb/64x16_all; within-run). On the 2-vCPU
#                        reference host, six alternating runs read
#                        2.91-3.72x with batched ALS half-steps and
#                        7.19-12.31x with the per-row solves they replaced,
#                        so the ceiling catches per-row solving coming back
#   serve/500            group-commit admission >= 0.7 x an uncoalesced
#                        join_direct loop in a 500-thread flash crowd —
#                        within-run, no baseline: both sides run the same
#                        writer and the same cached solver, so the ratio
#                        is what batching buys (or costs) under
#                        contention. On the 2-vCPU reference host the
#                        ratio read 0.91-0.97x in five runs and
#                        1.80-2.72x in four others (two runnable threads
#                        form batches of 1-2; what the wave costs is
#                        waking 500 threads), so the 0.7 floor sits below
#                        that spread and catches a coalescer that costs
#                        admission throughput, not one that fails to
#                        multiply it. (Before group commit this pair was a
#                        BENCH_NNNN.json ratio against a per-request-QR
#                        control; that ratio swung 4.05-7.96x across
#                        three back-to-back runs of one commit, wider
#                        than MAX_REGRESSION_PCT allows.)
#   serve/admit          bulk admission of 5 000 hosts into a fresh
#                        one-shard engine <= 2.5 x the cached join of the
#                        same rows (admit/5000 vs cached_join/5000, k = 64,
#                        d = 16; within-run, no baseline): what admission
#                        pays beyond its solve. On the 2-vCPU reference
#                        host, nine alternating runs read 1.53-1.95x with
#                        fresh slots appended as whole leaves into reserved
#                        measurement rows and 3.02-4.43x with the per-row
#                        slot growth it replaced, so the ceiling catches
#                        per-row growth coming back. run_benches.sh runs
#                        `serve` at IDES_LINALG_THREADS=1, so both sides
#                        stay on one thread as when the ceiling was set
#   serve_sharded        publish churn at 10x hosts <= MAX_PUBLISH_GROWTH
#                        (default 2.0) x the 1x cost — the chunk-tree
#                        publish-cost-independence claim — and each
#                        sharded single-core qps >= MIN_SHARD_QPS_RATIO
#                        (default 0.7) x the 1-shard qps (per-query cost
#                        must not grow with shard count; multi-core
#                        scaling needs cores this runner may not have)
#   telemetry_overhead   instrumented query path >= MIN_TELEMETRY_RATIO
#                        (default 0.9) x disabled-telemetry throughput —
#                        the observability subsystem's <= 10 % overhead
#                        budget
# Ratios are used instead of raw medians because CI runners and the
# machines that commit BENCH_*.json have different CPUs: absolute
# nanoseconds are not comparable across hosts, but "how much faster is the
# optimized path than its in-process control" is. A key group present in
# the baseline but missing (or ratio-regressed beyond MAX_REGRESSION_PCT,
# default 25) in the smoke run fails the job; a within-run-gated group
# missing from the smoke run fails it too (a renamed bench must not
# un-gate itself).

set -euo pipefail
cd "$(dirname "$0")/.."

smoke="${1:?usage: check_bench.sh SMOKE_JSON [BASELINE_JSON]}"
# `ls` exits non-zero when no snapshot exists; don't let set -e/pipefail
# turn "no baseline" into an opaque abort — that case is a clean skip.
# shellcheck disable=SC2012  # fixed BENCH_NNNN names: no spaces/controls to mangle
baseline="${2:-$({ ls BENCH_[0-9][0-9][0-9][0-9].json 2>/dev/null || true; } | sort | tail -n 1)}"
max_pct="${MAX_REGRESSION_PCT:-25}"

if [ -z "$baseline" ]; then
    echo "no committed BENCH_*.json baseline found; nothing to gate" >&2
    exit 0
fi
echo "gate: $smoke vs baseline $baseline (max ratio regression ${max_pct}%)" >&2

# median_ns FILE GROUP BENCH -> number or "null"
median_ns() {
    jq -r --arg g "$2" --arg b "$3" \
        '[.benches[] | .[]? | select(.group == $g and .bench == $b)] |
         first | .median_ns // "null"' "$1"
}

fail=0
# check GROUP FAST_BENCH SLOW_BENCH LABEL
check() {
    local group="$1" fast="$2" slow="$3" label="$4"
    local bf bs sf ss
    bf="$(median_ns "$baseline" "$group" "$fast")"
    bs="$(median_ns "$baseline" "$group" "$slow")"
    sf="$(median_ns "$smoke" "$group" "$fast")"
    ss="$(median_ns "$smoke" "$group" "$slow")"
    if [ "$bf" = "null" ] || [ "$bs" = "null" ]; then
        echo "  skip $label: not in baseline" >&2
        return
    fi
    if [ "$sf" = "null" ] || [ "$ss" = "null" ]; then
        echo "  FAIL $label: present in baseline but missing from smoke run" >&2
        fail=1
        return
    fi
    # speedup = slow/fast; regression when the smoke speedup falls below
    # (1 - max_pct/100) of the baseline speedup.
    local verdict
    verdict="$(jq -n --argjson bf "$bf" --argjson bs "$bs" \
                     --argjson sf "$sf" --argjson ss "$ss" \
                     --argjson pct "$max_pct" '
        ($bs / $bf) as $base | ($ss / $sf) as $now |
        {base: (($base * 100 | round) / 100),
         now: (($now * 100 | round) / 100),
         ok: ($now >= $base * (1 - $pct / 100))} |
        "\(if .ok then "ok  " else "FAIL" end) speedup \(.now)x vs baseline \(.base)x"')"
    verdict="${verdict%\"}"; verdict="${verdict#\"}"
    echo "  $verdict  $label" >&2
    case "$verdict" in FAIL*) fail=1 ;; esac
}

# check_abs GROUP FAST_BENCH SLOW_BENCH MIN_SPEEDUP LABEL
#
# Absolute within-smoke-run ratio gate, not baseline-relative: used for
# the SIMD-vs-scalar kernel check, where the *generation* of SIMD ISA
# (AVX2 vs AVX-512) differs across hosts and a baseline recorded on one
# can't calibrate another. Both benches run in the same process on the
# same host, so their ratio is host-independent in the way that matters:
# "the runtime dispatcher picked a vector kernel and it pays off". A
# missing fast/slow pair is a hard failure: every within-run-gated group
# ships in the smoke bench set, so absence means a rename or a dropped
# registration, not an older snapshot. On a runner whose CPU lacks
# AVX2+FMA the dispatcher falls back to scalar and the ratio is ~1x; set
# MIN_SIMD_SPEEDUP=0 there to disable that one floor (the group must
# still be present).
check_abs() {
    local group="$1" fast="$2" slow="$3" min="$4" label="$5"
    local sf ss
    sf="$(median_ns "$smoke" "$group" "$fast")"
    ss="$(median_ns "$smoke" "$group" "$slow")"
    if [ "$sf" = "null" ] || [ "$ss" = "null" ]; then
        echo "  FAIL $label: gated pair missing from smoke run" >&2
        fail=1
        return
    fi
    local verdict
    verdict="$(jq -n --argjson sf "$sf" --argjson ss "$ss" --argjson min "$min" '
        ($ss / $sf) as $now |
        {now: (($now * 100 | round) / 100),
         ok: ($now >= $min)} |
        "\(if .ok then "ok  " else "FAIL" end) speedup \(.now)x vs floor \($min)x"')"
    verdict="${verdict%\"}"; verdict="${verdict#\"}"
    echo "  $verdict  $label" >&2
    case "$verdict" in FAIL*) fail=1 ;; esac
}

# check_abs_max GROUP NUM_BENCH DEN_BENCH MAX_RATIO LABEL
#
# Within-smoke-run *upper* bound: NUM's median must stay <= MAX_RATIO x
# DEN's median. Used where growth, not speedup, is the regression — e.g.
# publish cost as the table grows 10x.
check_abs_max() {
    local group="$1" num="$2" den="$3" max="$4" label="$5"
    local sn sd
    sn="$(median_ns "$smoke" "$group" "$num")"
    sd="$(median_ns "$smoke" "$group" "$den")"
    if [ "$sn" = "null" ] || [ "$sd" = "null" ]; then
        echo "  FAIL $label: gated pair missing from smoke run" >&2
        fail=1
        return
    fi
    local verdict
    verdict="$(jq -n --argjson sn "$sn" --argjson sd "$sd" --argjson max "$max" '
        ($sn / $sd) as $now |
        {now: (($now * 100 | round) / 100),
         ok: ($now <= $max)} |
        "\(if .ok then "ok  " else "FAIL" end) ratio \(.now)x vs ceiling \($max)x"')"
    verdict="${verdict%\"}"; verdict="${verdict#\"}"
    echo "  $verdict  $label" >&2
    case "$verdict" in FAIL*) fail=1 ;; esac
}

check matmul           "blocked/512"     "seed_ikj/512"     "matmul/512 (blocked vs seed_ikj)"
check_abs matmul "blocked/512" "blocked_scalar/512" "${MIN_SIMD_SPEEDUP:-1.5}" \
    "matmul/512 (dispatched SIMD vs forced-scalar kernel)"
# The rejoin shape against the square shape at equal flops: a ratio of
# GFLOPS on one back end, so it needs no baseline from another host.
check_abs matmul "rejoin/131072x64x16" "blocked/512" 0.6 \
    "matmul/rejoin (131072x64x16 host-join product vs blocked/512 rate)"
# NMF's deep narrow product against the same bits through the packed
# driver: within-run, no baseline.
check_abs matmul "narrow_deep/1024x1024x10" "narrow_deep_packed/1024x1024x10" 1.6 \
    "matmul/narrow_deep (1024x1024x10 D*Y on the unpacked vs the packed driver)"
# The lane-blocked multi-row solve against its in-process control: a
# loop over the one-row instance of the same routine. Without vector
# lanes (a baseline x86-64 build) the blocking still hides the subtract
# latency across rows, so the floor holds there too.
check_abs cholesky_solve_rows "blocked/16" "per_row/16" "${MIN_SOLVE_ROWS_RATIO:-2.0}" \
    "cholesky_solve_rows/16 (lane-blocked vs per-row solve, 65536 rows)"
# One row through the multi-row entry point against the one-row solve: a
# ragged tail must run on as few lanes as it needs.
check_abs_max cholesky_solve_rows "blocked/1" "per_row/1" 1.2 \
    "cholesky_solve_rows/1 (multi-row solve of one row vs the one-row solve)"
check factor           "svd_blocked/512" "svd_jacobi/512"   "factor/512 (blocked SVD vs one-sided Jacobi)"
check_abs svd "truncated_d10_p2psim/512" "exact_blocked/512" 2.0 \
    "svd/512 (truncated d=10 vs exact blocked SVD, P2PSim-like matrix)"
check join_batch       "batched_qr/500"  "per_host_qr/500"  "join_batch/500 (batched vs per-host QR)"
check streaming_update "incremental/500" "full_refit/500"   "streaming_update/500 (incremental vs full refit)"
check_abs_max streaming_update "absorb/64x16_all" "absorb/64x16_one" 6.0 \
    "streaming_update/absorb (all 64 landmarks moved vs one, k=64 d=16)"
check_abs_max streaming_update "refresh/64x16" "absorb/64x16_all" 5.0 \
    "streaming_update/refresh (refresh-tier step vs absorbing all 64, k=64 d=16)"
check_abs serve "coalesced_join/500" "direct_join/500" 0.7 \
    "serve/500 (group-commit vs uncoalesced admission, 500-thread wave)"
check_abs_max serve "admit/5000" "cached_join/5000" 2.5 \
    "serve/admit (bulk admission of 5000 hosts vs the cached join of the same rows)"
check_abs_max serve_sharded "publish_churn/10x" "publish_churn/1x" "${MAX_PUBLISH_GROWTH:-2.0}" \
    "serve_sharded (publish churn at 10x hosts vs 1x — chunk-tree publish)"
check_abs serve_sharded "qps/shards2" "qps/shards1" "${MIN_SHARD_QPS_RATIO:-0.7}" \
    "serve_sharded (2-shard single-core qps vs 1-shard)"
check_abs serve_sharded "qps/shards4" "qps/shards1" "${MIN_SHARD_QPS_RATIO:-0.7}" \
    "serve_sharded (4-shard single-core qps vs 1-shard)"
check_abs serve_sharded "qps/shards8" "qps/shards1" "${MIN_SHARD_QPS_RATIO:-0.7}" \
    "serve_sharded (8-shard single-core qps vs 1-shard)"
# Telemetry overhead on the query hot path: instrumented throughput must
# stay >= MIN_TELEMETRY_RATIO (default 0.9) x the disabled baseline —
# i.e. disabled_ns / instrumented_ns >= 0.9. Both sides run in the same
# process against the same admitted deployment, so the ratio isolates
# exactly the recording cost (striped counter bumps + 1-in-64 sampled
# spans).
check_abs telemetry_overhead "query_instrumented/500" "query_disabled/500" \
    "${MIN_TELEMETRY_RATIO:-0.9}" \
    "telemetry_overhead/500 (instrumented vs disabled query path)"

if [ "$fail" -ne 0 ]; then
    echo "bench regression gate FAILED" >&2
    exit 1
fi
echo "bench regression gate passed" >&2
