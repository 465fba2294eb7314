#!/usr/bin/env bash
# Validates the telemetry smoke artifacts produced by
#   ides-cli serve --metrics-out METRICS --trace-out TRACE --json > SERVING
#
# Usage:
#   scripts/check_telemetry.sh METRICS_PROM TRACE_JSON SERVING_JSON
#
# What is checked:
#   1. The Prometheus exposition carries every required series (query
#      counters, the query/publish latency histograms, the dropped-spans
#      counter).
#   2. Losslessness: ides_spans_dropped_total must be exactly 0 — the
#      span ring buffers never overflowed, so the trace is complete.
#   3. Exact reconciliation: the exposition's query-histogram
#      _count/_sum equal the --json telemetry_query_count /
#      telemetry_query_sum_ns byte-for-byte (both are integers rendered
#      from the same merged histogram; any drift means the exporter and
#      the load report disagree about what was measured), and
#      ides_measurement_bytes equals the --json measurement_bytes. The
#      serve scenario admits round-trip rows (out = in) without churn,
#      so the gauge must also read hosts x landmarks x 8: one stored
#      measurement table per shard, none for the identical in-rows.
#   4. The Chrome trace is valid JSON, every event carries ts and dur,
#      and at least 6 distinct stage names were recorded.

set -euo pipefail
cd "$(dirname "$0")/.."

metrics="${1:?usage: check_telemetry.sh METRICS_PROM TRACE_JSON SERVING_JSON}"
trace="${2:?usage: check_telemetry.sh METRICS_PROM TRACE_JSON SERVING_JSON}"
serving="${3:?usage: check_telemetry.sh METRICS_PROM TRACE_JSON SERVING_JSON}"

fail=0

# 1. Required series.
for series in \
    ides_queries_total ides_epochs_total \
    ides_publishes_total ides_spans_dropped_total \
    ides_coalescer_queue_depth ides_chunk_share_ratio ides_measurement_bytes \
    ides_publish_latency_ns_count ides_query_latency_ns_bucket \
    ides_query_latency_ns_sum ides_query_latency_ns_count; do
    if ! grep -q "^$series" "$metrics"; then
        echo "FAIL: exposition missing series $series" >&2
        fail=1
    fi
done

# 2. Lossless trace.
dropped="$(awk '$1 == "ides_spans_dropped_total" { print $2 }' "$metrics")"
if [ "${dropped:-missing}" != "0" ]; then
    echo "FAIL: ides_spans_dropped_total = ${dropped:-missing} (want 0: trace must be lossless)" >&2
    fail=1
else
    echo "ok   spans dropped: 0 (lossless trace)" >&2
fi

# 3. Exposition _count/_sum reconcile exactly with the --json totals.
count="$(awk '$1 == "ides_query_latency_ns_count" { print $2 }' "$metrics")"
sum="$(awk '$1 == "ides_query_latency_ns_sum" { print $2 }' "$metrics")"
jcount="$(jq -r '.telemetry_query_count' "$serving")"
jsum="$(jq -r '.telemetry_query_sum_ns' "$serving")"
if [ "${count:-a}" = "${jcount:-b}" ] && [ "${sum:-a}" = "${jsum:-b}" ]; then
    echo "ok   query histogram reconciles: count $count, sum ${sum}ns" >&2
else
    echo "FAIL: exposition/_json mismatch: _count $count vs $jcount, _sum $sum vs $jsum" >&2
    fail=1
fi

mbytes="$(awk '$1 == "ides_measurement_bytes" { print $2 }' "$metrics")"
jmbytes="$(jq -r '.measurement_bytes' "$serving")"
want_mbytes="$(jq -r '.hosts * .landmarks * 8' "$serving")"
if [ "${mbytes:-a}" = "${jmbytes:-b}" ] && [ "${jmbytes:-b}" = "${want_mbytes:-c}" ]; then
    echo "ok   measurement gauge reconciles: ${mbytes} B (one table for symmetric rows)" >&2
else
    echo "FAIL: measurement bytes: exposition ${mbytes:-missing}, --json ${jmbytes:-missing}, want ${want_mbytes:-?} (hosts x landmarks x 8)" >&2
    fail=1
fi

# 4. Trace structure: valid JSON, complete events, stage coverage.
if ! jq -e '.traceEvents | length > 0' "$trace" > /dev/null; then
    echo "FAIL: trace has no events (or is not valid JSON)" >&2
    fail=1
fi
if ! jq -e '[.traceEvents[] | select((has("ts") and has("dur")) | not)] | length == 0' \
    "$trace" > /dev/null; then
    echo "FAIL: trace contains events without ts/dur" >&2
    fail=1
fi
stages="$(jq -r '[.traceEvents[].name] | unique | length' "$trace")"
if [ "${stages:-0}" -ge 6 ]; then
    echo "ok   trace stages: $stages distinct ($(jq -r '[.traceEvents[].name] | unique | join(",")' "$trace"))" >&2
else
    echo "FAIL: only ${stages:-0} distinct stage names in trace (want >= 6)" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "telemetry smoke gate FAILED" >&2
    exit 1
fi
echo "telemetry smoke gate passed" >&2
