#!/usr/bin/env bash
# CI bench gate. Every bound is a ratio of two medians from the same
# smoke run, so no baseline from another host or commit is read.
#
# Usage:
#   scripts/check_bench.sh SMOKE_JSON     # the output of scripts/run_benches.sh
#
# Each gate reads `group numerator denominator op bound`: the ratio of
# the numerator bench's median to the denominator's must be `>=` a
# floor or `<=` a ceiling. A floor's numerator is the slow in-process
# control, so the ratio is a speedup; a ceiling's is a cost that must
# not grow. A gated pair missing from the smoke run fails, so a renamed
# bench cannot un-gate itself. Ratios of same-process medians, unlike
# raw nanoseconds, mean the same on any host.
#
# Most bounds sit between the readings of the current code and those of
# a regression of the mechanism they guard (planted, or the code the
# mechanism replaced), taken over alternating runs on a 2-vCPU host; the
# note above such a gate gives both. MIN_SIMD_SPEEDUP (default 1.5) is
# the one override: set it to 0 on a runner whose CPU lacks AVX2+FMA,
# where the dispatcher falls back to the scalar tile and that ratio
# reads ~1x.

set -euo pipefail

smoke="${1:?usage: check_bench.sh SMOKE_JSON}"

gates="$(cat <<EOF
# The blocked GEMM against the seed's row-streaming ikj loop, one thread
# each: 4.20-6.66x, 1.93-3.68x with packing disabled (the unpacked
# register tile over 16-column strips). Two-thread blocked/512 read
# 4.09-9.30x against 1.95-5.26x: the vCPU state moved it more than packing.
matmul  seed_ikj/512  blocked_serial/512  >=  3.9
# The dispatched SIMD tile against the same blocked GEMM forced scalar.
matmul  blocked_scalar/512  blocked/512  >=  ${MIN_SIMD_SPEEDUP:-1.5}
# The host join's product (131072 x 64 times 64 x 16, read in place 256
# rows at a time, tiles too small to fan out) at >= 0.6x the one-thread
# blocked/512 rate; both do 2 * 512^3 flops. 0.67-1.70x on the unpacked
# n <= 16 driver, 0.30-0.38x forced onto the packed one: catches the
# rejoin shape falling back to packing. Against the two-thread
# blocked/512 the unpacked driver read 0.44-2.04x.
matmul  blocked_serial/512  rejoin/131072x64x16  >=  0.6
# NMF's D * Y (1024 x 1024 times 1024 x 10) on the unpacked driver vs the
# same bits through an Op::Trans operand, which only the packed driver
# takes. 2.26-2.78x past KC, 0.87-1.06x when k > KC stayed packed.
matmul  narrow_deep_packed/1024x1024x10  narrow_deep/1024x1024x10  >=  1.6
# The lane-blocked multi-row Cholesky solve vs a loop over the one-row
# solve at 65 536 rows of d = 16: the lane blocking itself (~6x on AVX2).
cholesky_solve_rows  per_row/16  blocked/16  >=  2.0
# The multi-row solve handed one row vs the one-row solve, their samples
# interleaved in one loop: 1.03-1.13x running one lane in place (22
# runs), 1.73-2.33x with the 16-lane block of zero rows it replaced (14).
cholesky_solve_rows  blocked/1  per_row/1  <=  1.2
# The blocked (Golub-Kahan) SVD at 512 vs one-sided Jacobi at 256, the
# control at half the size to keep its cost under a second: 2.52-3.54x
# (22 runs), 1.37-2.05x (14) with the bidiagonalization at panel width 1
# (each reflector applied to the whole trailing block before the next is
# formed).
factor  svd_jacobi/256  svd_blocked/512  >=  2.3
# The truncated d = 10 SVD vs the exact blocked SVD of one P2PSim-like
# 512^2 matrix: 2.96-3.30x with the Ritz-residual stop, 0.48-0.54x with
# the column-norm stop it replaced (iteration past convergence).
svd  exact_blocked/512  truncated_d10_p2psim/512  >=  2.0
# The batched QR join vs one QR join per host at 500 hosts: 26.5-52.0x,
# 1.01-1.71x with the landmark system re-factored for every host.
join_batch  per_host_qr/500  batched_qr/500  >=  8
# A full refit (cold ALS fit + re-join of all 500 hosts) vs an
# incremental epoch (absorb + re-join of the ~10 % affected): 8.77-12.3x,
# 2.54-3.75x re-joining all 500 hosts, 1.14-1.43x absorbing by a cold refit.
streaming_update  full_refit/500  incremental/500  >=  6
# The absorb-tier landmark step at k = 64, d = 16, all 64 landmarks moved
# vs one: 2.7-4.5x with one Gram factorization per step, 6.0-9.5x with
# the per-landmark rank-1 Gram repair it replaced.
streaming_update  absorb/64x16_all  absorb/64x16_one  <=  6.0
# The refresh-tier step (warm 2-sweep ALS, all 64 moved) vs the all-64
# absorb: 2.91-3.72x with batched ALS half-steps, 7.19-12.31x per-row.
streaming_update  refresh/64x16  absorb/64x16_all  <=  5.0
# Group-commit admission vs an uncoalesced join_direct loop in a
# 500-thread flash crowd, same writer and solver: 0.91-0.97x in five
# runs, 1.80-2.72x in four others (two runnable threads form batches of
# 1-2). Catches a coalescer that costs admission throughput.
serve  direct_join/500  coalesced_join/500  >=  0.7
# Bulk admission of 5 000 hosts into a one-shard engine vs the cached
# join of the same rows (k = 64, d = 16; run_benches.sh runs this target
# on one thread): 1.53-1.95x appending whole leaves, 3.02-4.43x with the
# per-row slot growth it replaced.
serve  admit/5000  cached_join/5000  <=  2.5
# Snapshot publish at 10x the hosts vs 1x: the chunk-tree publish cost
# must not grow with the table.
serve_sharded  publish_churn/10x  publish_churn/1x  <=  2.0
# Per-query cost must not grow with the shard count (single-core qps;
# multi-core scaling needs cores a runner may not have).
serve_sharded  qps/shards1  qps/shards2  >=  0.7
serve_sharded  qps/shards1  qps/shards4  >=  0.7
serve_sharded  qps/shards1  qps/shards8  >=  0.7
# The instrumented query path at >= 0.9x the disabled one's throughput:
# the telemetry subsystem's 10 % overhead budget.
telemetry_overhead  query_disabled/500  query_instrumented/500  >=  0.9
EOF
)"

verdicts="$(jq -r --arg gates "$gates" '
    (reduce .benches[][] as $r ({}; .["\($r.group) \($r.bench)"] = $r.median_ns)) as $m
    | $gates | split("\n")[] | select(test("^\\s*(#|$)") | not)
    | [splits(" +")] as [$g, $num, $den, $op, $bound]
    | "\($g): \($num) / \($den) \($op) \($bound)" as $gate
    | [$m["\($g) \($num)"], $m["\($g) \($den)"]] as [$n, $d]
    | if $n == null or $d == null then "FAIL  \($gate): gated pair missing from the run"
      else ($n / $d) as $r
        | (if $op == ">=" then $r >= ($bound | tonumber) else $r <= ($bound | tonumber) end) as $ok
        | "\(if $ok then "ok  " else "FAIL" end)  \($gate): \($r * 100 | round / 100)x"
      end' "$smoke")"
echo "$verdicts" >&2
if grep -q '^FAIL' <<<"$verdicts"; then
    echo "bench gate FAILED" >&2
    exit 1
fi
echo "bench gate passed" >&2
