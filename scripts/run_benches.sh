#!/usr/bin/env bash
# Runs the criterion bench suite and snapshots the results into the next
# numbered BENCH_NNNN.json at the repo root — the perf trajectory every
# PR's kernel claims are judged against.
#
# Usage:
#   scripts/run_benches.sh             # full run, all bench targets
#   QUICK=1 scripts/run_benches.sh     # CI smoke: fewer samples, key groups
#   QUICK=1 SMOKE_OUT=bench_smoke.json scripts/run_benches.sh
#                                      # CI smoke with a stable output path
#                                      # (for scripts/check_bench.sh + the
#                                      # workflow artifact upload)
#   BENCHES="kernels qr" scripts/run_benches.sh
#
# The vendored criterion shim writes a JSON record array per bench binary
# when CRITERION_JSON is set (see vendor/criterion); this script merges
# those arrays and adds host metadata. Full runs also merge the
# streaming_update experiment's accuracy summary (--json) so the
# accuracy-vs-staleness claim travels with the timing numbers.
#
# Any failing bench binary (or one that produced no JSON) aborts the run
# with a non-zero exit *before* a snapshot is written — a partial
# BENCH_NNNN.json would silently pass the CI regression gate.

set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES="${BENCHES:-kernels factor nmf_convergence projection join_batch streaming_update serve serve_sharded telemetry_overhead table1}"
if [ "${QUICK:-0}" = "1" ]; then
    BENCHES="${BENCHES_OVERRIDE:-kernels factor join_batch streaming_update serve serve_sharded telemetry_overhead}"
    export CRITERION_QUICK=1
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# shellcheck disable=SC2086  # BENCHES is a space-separated word list
for bench in $BENCHES; do
    echo "== bench: $bench" >&2
    if ! CRITERION_JSON="$tmpdir/$bench.json" \
        cargo bench -p ides-bench --bench "$bench" >&2; then
        echo "error: bench binary '$bench' failed; not snapshotting" >&2
        exit 1
    fi
    if ! [ -s "$tmpdir/$bench.json" ]; then
        echo "error: bench binary '$bench' wrote no JSON; not snapshotting" >&2
        exit 1
    fi
done

# Next free BENCH_NNNN.json slot.
n=1
while [ -e "$(printf 'BENCH_%04d.json' "$n")" ]; do
    n=$((n + 1))
done
out="$(printf 'BENCH_%04d.json' "$n")"
if [ "${QUICK:-0}" = "1" ]; then
    # Smoke runs don't extend the trajectory; SMOKE_OUT pins the path for
    # the CI regression gate and artifact upload.
    out="${SMOKE_OUT:-$tmpdir/bench_smoke.json}"
fi

jq -n \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg host "$(uname -m) $(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- | sed 's/^ *//' || echo unknown)" \
    --arg cores "$(nproc)" \
    --arg rustc "$(rustc --version)" \
    '{date: $date, host: $host, cores: ($cores | tonumber), rustc: $rustc, benches: {}}' \
    > "$out.tmp"
# shellcheck disable=SC2086  # BENCHES is a space-separated word list
for bench in $BENCHES; do
    jq --arg name "$bench" --slurpfile records "$tmpdir/$bench.json" \
        '.benches[$name] = $records[0]' "$out.tmp" > "$out.tmp2"
    mv "$out.tmp2" "$out.tmp"
done

# Full runs: attach the streaming accuracy-vs-staleness summary so the
# committed trajectory records accuracy next to the update-cost numbers.
# shellcheck disable=SC2086  # BENCHES is a space-separated word list
if [ "${QUICK:-0}" != "1" ] && printf '%s\n' $BENCHES | grep -qx streaming_update; then
    echo "== experiment: streaming_update accuracy" >&2
    if ! cargo run --release -q -p ides-experiments --bin streaming_update -- --json \
        > "$tmpdir/streaming_accuracy.txt"; then
        echo "error: streaming_update experiment failed; not snapshotting" >&2
        exit 1
    fi
    tail -n 1 "$tmpdir/streaming_accuracy.txt" > "$tmpdir/streaming_accuracy.json"
    jq --slurpfile acc "$tmpdir/streaming_accuracy.json" \
        '.streaming_accuracy = $acc[0]' "$out.tmp" > "$out.tmp2"
    mv "$out.tmp2" "$out.tmp"
fi

# Serving-engine load summary (admission speedup, p50/p99 quiescent vs
# under drift). Full runs use the serve_load experiment (4s, 500 hosts);
# QUICK smoke runs a 2-second loadgen through the CLI so the serving
# path gets end-to-end exercise in CI too.
# shellcheck disable=SC2086  # BENCHES is a space-separated word list
if printf '%s\n' $BENCHES | grep -qx serve; then
    if [ "${QUICK:-0}" = "1" ]; then
        echo "== smoke: 2-second sharded loadgen (ides-cli serve --shards 4)" >&2
        if ! cargo run --release -q -p ides-cli -- serve \
            --landmarks 64 --dim 16 --hosts 120 --shards 4 --duration-s 2 --json \
            > "$tmpdir/serving.json"; then
            echo "error: cli serve loadgen failed; not snapshotting" >&2
            exit 1
        fi
    else
        echo "== experiment: serve_load" >&2
        if ! cargo run --release -q -p ides-experiments --bin serve_load -- --json \
            > "$tmpdir/serving.json"; then
            echo "error: serve_load experiment failed; not snapshotting" >&2
            exit 1
        fi
    fi
    jq --slurpfile serving "$tmpdir/serving.json" \
        '.serving = $serving[0]' "$out.tmp" > "$out.tmp2"
    mv "$out.tmp2" "$out.tmp"
fi
mv "$out.tmp" "$out"
echo "wrote $out" >&2

# Surface the headline numbers: blocked vs naive matmul at 512, the
# host-join GEMM shape's rate against the square shape's, NMF's deep
# narrow product on the unpacked vs the packed driver, the truncated
# vs exact SVD at 512, the lane-blocked vs per-row Cholesky solve at
# 65 536 rows, the batched vs per-host join speedup at 500 hosts, the per-epoch
# incremental update vs full refit at 500 hosts, the absorb-tier landmark
# step moving all 64 landmarks vs one, the refresh-tier step vs that
# all-64 absorb, and one-thread vs
# automatic-policy epoch application. Every headline guards ALL the operands it divides by, so a
# partial QUICK snapshot (BENCHES_OVERRIDE with a subset of groups) never
# prints spurious `null`-arithmetic output.
jq -r '.benches.kernels // [] | map(select(.group == "matmul")) |
       map({(.bench): .median_ns}) | add // {} |
       if (."blocked/512") and (."naive_ijk/512") and (."seed_ikj/512") then
         "matmul/512 speedup vs naive_ijk: \((."naive_ijk/512" / ."blocked/512") * 100 | round / 100)x, " +
         "vs seed_ikj: \((."seed_ikj/512" / ."blocked/512") * 100 | round / 100)x" +
         (if (."blocked_scalar/512") then
            ", vs scalar kernel: \((."blocked_scalar/512" / ."blocked/512") * 100 | round / 100)x"
          else "" end)
       else empty end' "$out" >&2 || true
jq -r '.benches.kernels // [] | map(select(.group == "matmul" and .gflops)) |
       map({(.bench): .gflops}) | add // {} |
       if (."blocked/512") then
         "matmul/512 throughput: blocked \(."blocked/512" | round)" +
         (if (."blocked_scalar/512") then " GFLOPS, scalar \(."blocked_scalar/512" * 100 | round / 100)" else "" end) +
         " GFLOPS"
       else empty end' "$out" >&2 || true
jq -r '.benches.kernels // [] | map(select(.group == "matmul" and .gflops)) |
       map({(.bench): .gflops}) | add // {} |
       if (."rejoin/131072x64x16") and (."blocked/512") then
         "matmul/rejoin 131072x64x16 (host-join shape): \(."rejoin/131072x64x16" * 10 | round / 10) GFLOPS, " +
         "\((."rejoin/131072x64x16" / ."blocked/512") * 100 | round / 100)x the blocked/512 rate"
       else empty end' "$out" >&2 || true
jq -r '.benches.kernels // [] | map(select(.group == "matmul" and .gflops)) |
       map({(.bench): .gflops}) | add // {} |
       if (."narrow_deep/1024x1024x10") and (."narrow_deep_packed/1024x1024x10") then
         "matmul/narrow_deep 1024x1024x10 (NMF D*Y shape): \(."narrow_deep/1024x1024x10" * 10 | round / 10) GFLOPS unpacked, " +
         "\((."narrow_deep/1024x1024x10" / ."narrow_deep_packed/1024x1024x10") * 100 | round / 100)x the packed driver"
       else empty end' "$out" >&2 || true
jq -r '.benches.kernels // [] | map(select(.group == "svd")) |
       map({(.bench): .median_ns}) | add // {} |
       if (."truncated_d10_p2psim/512") and (."exact_blocked/512") then
         "svd/512 P2PSim-like truncated d=10 vs exact blocked: \((."exact_blocked/512" / ."truncated_d10_p2psim/512") * 100 | round / 100)x " +
         "(\(."truncated_d10_p2psim/512" / 1e6 * 10 | round / 10) vs \(."exact_blocked/512" / 1e6 * 10 | round / 10) ms)"
       else empty end' "$out" >&2 || true
jq -r '.benches.kernels // [] | map(select(.group == "cholesky_solve_rows")) |
       map({(.bench): .median_ns}) | add // {} |
       if (."blocked/16") and (."per_row/16") then
         "cholesky_solve_rows/16 lane-blocked vs per-row solve: \((."per_row/16" / ."blocked/16") * 100 | round / 100)x " +
         "(\(."blocked/16" / 65536 * 10 | round / 10) vs \(."per_row/16" / 65536 * 10 | round / 10) ns/row)"
       else empty end' "$out" >&2 || true
jq -r '.benches.factor // [] | map(select(.group == "factor")) |
       map({(.bench): .median_ns}) | add // {} |
       if (."svd_blocked/512") and (."svd_jacobi/512") and
          (."qr_unblocked/512") and (."qr_blocked/512") and
          (."eig_jacobi/512") and (."eig_blocked/512") then
         "factor/512 speedup blocked vs unblocked: " +
         "svd \((."svd_jacobi/512" / ."svd_blocked/512") * 100 | round / 100)x, " +
         "qr \((."qr_unblocked/512" / ."qr_blocked/512") * 100 | round / 100)x, " +
         "eig \((."eig_jacobi/512" / ."eig_blocked/512") * 100 | round / 100)x"
       else empty end' "$out" >&2 || true
jq -r '.benches.join_batch // [] | map(select(.group == "join_batch")) |
       map({(.bench): .median_ns}) | add // {} |
       if (."batched_qr/500") and (."per_host_qr/500") and
          (."per_host_normal_eq/500") and (."batched_normal_eq/500") then
         "join_batch/500 speedup batched vs per-host: " +
         "qr \((."per_host_qr/500" / ."batched_qr/500") * 100 | round / 100)x, " +
         "normal_eq \((."per_host_normal_eq/500" / ."batched_normal_eq/500") * 100 | round / 100)x"
       else empty end' "$out" >&2 || true
jq -r '.benches.streaming_update // [] | map(select(.group == "streaming_update")) |
       map({(.bench): .median_ns}) | add // {} |
       if (."incremental/500") and (."full_refit/500") and (."warm_refresh/500") then
         "streaming_update/500 full refit vs incremental: \((."full_refit/500" / ."incremental/500") * 100 | round / 100)x, " +
         "vs warm refresh: \((."full_refit/500" / ."warm_refresh/500") * 100 | round / 100)x"
       else empty end' "$out" >&2 || true
jq -r '.benches.streaming_update // [] | map(select(.group == "streaming_update")) |
       map({(.bench): .median_ns}) | add // {} |
       if (."absorb/64x16_one") and (."absorb/64x16_all") then
         "streaming_update absorb step (k=64, d=16): all 64 landmarks moved \((."absorb/64x16_all" / ."absorb/64x16_one") * 100 | round / 100)x one " +
         "(\(."absorb/64x16_all" / 1e3 * 10 | round / 10) vs \(."absorb/64x16_one" / 1e3 * 10 | round / 10) us)"
       else empty end' "$out" >&2 || true
jq -r '.benches.streaming_update // [] | map(select(.group == "streaming_update")) |
       map({(.bench): .median_ns}) | add // {} |
       if (."refresh/64x16") and (."absorb/64x16_all") then
         "streaming_update refresh step (k=64, d=16): \((."refresh/64x16" / ."absorb/64x16_all") * 100 | round / 100)x the all-64 absorb step " +
         "(\(."refresh/64x16" / 1e3 * 10 | round / 10) vs \(."absorb/64x16_all" / 1e3 * 10 | round / 10) us)"
       else empty end' "$out" >&2 || true
jq -r 'if .streaming_accuracy then
         "streaming accuracy: streaming vs fresh gap \((.streaming_accuracy.streaming_vs_fresh_gap * 10000 | round) / 100)% " +
         "(stale \(.streaming_accuracy.stale_mean_median), streaming \(.streaming_accuracy.streaming_mean_median), fresh \(.streaming_accuracy.fresh_mean_median))"
       else empty end' "$out" >&2 || true
jq -r '.benches.serve // [] | map(select(.group == "serve")) |
       map({(.bench): .median_ns}) | add // {} |
       if (."coalesced_join/500") and (."direct_join/500") and
          (."query_under_drift/500") and (."query_quiescent/500") then
         "serve/500 group-commit vs uncoalesced admission: \((."direct_join/500" / ."coalesced_join/500") * 100 | round / 100)x; " +
         "query under drift vs quiescent (median): \((."query_under_drift/500" / ."query_quiescent/500") * 100 | round / 100)x"
       else empty end' "$out" >&2 || true
jq -r 'if .serving then
         "serving: admission coalesced \(.serving.admission_speedup)x at \(.serving.admission_joiners) joiners " +
         "(\(.serving.admission_flushes) flushes); query p99 \(.serving.quiescent_p99_us)us quiescent, " +
         "\(.serving.drift_p99_us)us under drift (\(.serving.p99_drift_over_quiescent)x)"
       else empty end' "$out" >&2 || true
jq -r '.benches.serve_sharded // [] | map(select(.group == "serve_sharded")) |
       map({(.bench): .median_ns}) | add // {} |
       if (."publish_churn/1x") and (."publish_churn/10x") and
          (."qps/shards1") and (."qps/shards2") and (."qps/shards4") and (."qps/shards8") then
         "serve_sharded: publish churn at 10x hosts \((."publish_churn/10x" / ."publish_churn/1x") * 100 | round / 100)x the 1x cost; " +
         "single-core qps vs 1 shard: 2 shards \((."qps/shards1" / ."qps/shards2") * 100 | round / 100)x, " +
         "4 shards \((."qps/shards1" / ."qps/shards4") * 100 | round / 100)x, " +
         "8 shards \((."qps/shards1" / ."qps/shards8") * 100 | round / 100)x"
       else empty end' "$out" >&2 || true
jq -r '.benches.telemetry_overhead // [] | map(select(.group == "telemetry_overhead")) |
       map({(.bench): .median_ns}) | add // {} |
       if (."query_disabled/500") and (."query_instrumented/500") then
         "telemetry overhead: instrumented query at \((."query_disabled/500" / ."query_instrumented/500") * 100 | round / 100)x disabled throughput " +
         "(disabled \(."query_disabled/500" | round)ns, instrumented \(."query_instrumented/500" | round)ns median)"
       else empty end' "$out" >&2 || true
