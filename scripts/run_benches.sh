#!/usr/bin/env bash
# Runs the criterion bench targets that scripts/check_bench.sh gates and
# writes their records, with host metadata, to one JSON file.
#
# Usage:
#   scripts/run_benches.sh OUT_JSON
#
# Every target runs under CRITERION_QUICK=1 (at most 10 samples of about
# 10 ms each; see vendor/criterion) and writes a JSON record array to a
# scratch file through CRITERION_JSON. OUT_JSON holds those arrays under
# `.benches.<target>`. A target that fails, or writes no records, aborts
# the run with a non-zero exit before OUT_JSON is written.

set -euo pipefail
out="$(realpath -m "${1:?usage: run_benches.sh OUT_JSON}")"
cd "$(dirname "$0")/.."

benches=(kernels factor join_batch streaming_update serve serve_sharded telemetry_overhead)
export CRITERION_QUICK=1
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

records=()
for bench in "${benches[@]}"; do
    echo "== bench: $bench" >&2
    json="$tmpdir/$bench.json"
    records+=("$json")
    # `serve`'s admit/5000 vs cached_join/5000 gate compares bulk admission,
    # which assigns slots in batch order on one thread, with the cached
    # join of the same rows, which splits into tile workers when the
    # thread budget allows. A budget of one keeps both sides on one thread,
    # as when the gate was set, so the ratio means the same on any host.
    budget=()
    if [ "$bench" = serve ]; then budget=(env IDES_LINALG_THREADS=1); fi
    if ! CRITERION_JSON="$json" \
        "${budget[@]}" cargo bench -p ides-bench --bench "$bench" >&2; then
        echo "error: bench target '$bench' failed" >&2
        exit 1
    fi
    if ! [ -s "$json" ]; then
        echo "error: bench target '$bench' wrote no records" >&2
        exit 1
    fi
done

jq -n \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg host "$(uname -m) $(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- | sed 's/^ *//' || echo unknown)" \
    --argjson cores "$(nproc)" \
    --arg rustc "$(rustc --version)" \
    '{$date, $host, $cores, $rustc,
      benches: ([$ARGS.positional, [inputs]] | transpose | map({(.[0]): .[1]}) | add)}' \
    "${records[@]}" --args "${benches[@]}" > "$tmpdir/out.json"
mv "$tmpdir/out.json" "$out"
echo "wrote $out" >&2
