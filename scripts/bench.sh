#!/usr/bin/env bash
# The perf-trajectory harness: runs every JSON-writing bench on the fixed
# synthetic workload, then the classic pruning + edge-weighting benches.
#
#   pipeline_e2e      BENCH_pipeline.json  build -> purge -> filter -> weight
#                                          -> prune over the CSR arena,
#                                          wall-ms + allocation counts
#   query_latency     BENCH_query.json     snapshot load ms, single-query
#                                          percentiles, batch throughput at
#                                          1/2/4/8 threads
#   serve_throughput  BENCH_serve.json     wire round-trip p50/p99 + q/s
#                                          against a live `er serve`,
#                                          client-visible reload pause
#   delta_latency     BENCH_delta.json     live upsert apply/query-after us
#                                          percentiles vs the full rebuild
#                                          path, pinned compaction
#   pruning_scaling   BENCH_pruning.json   every pruning scheme x 1/2/4/8
#                                          threads, plus the raw
#                                          edge-weighting sweep
#
# Every file lands at the repository root and records the host's detected
# core count, since speedups are bounded by the cores the machine has. One
# `validate_json` call then checks all five against their schema tables,
# including the delta bench's <=1 ms applied-and-queryable and
# >=1000x apply-vs-rebuild-path acceptance bars.
#
# Environment knobs:
#   BENCH_SAMPLE_SIZE  timed samples per cell (default 5; use 2 for a quick
#                      run, more for stable numbers)
set -euo pipefail
cd "$(dirname "$0")/.."

for bench in pipeline_e2e query_latency serve_throughput delta_latency pruning_scaling; do
  echo "==> $bench"
  BENCH_OUT="" cargo bench -p er-bench --bench "$bench"
done
cargo run -q -p er-bench --bin validate_json -- BENCH_*.json

echo "==> pruning bench"
cargo bench -p er-bench --bench pruning

echo "==> edge-weighting bench"
cargo bench -p er-bench --bench edge_weighting

echo "Bench run complete."
