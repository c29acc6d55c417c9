#!/usr/bin/env bash
# Capture a machine-readable bench snapshot into BENCH_<n>.json (JSON lines,
# one measurement per line, first line a "meta" record). Each snapshot pins
# the exact bench invocations, so numbers from different checkouts compare
# like-for-like.
#
# Usage: scripts/bench_snapshot.sh [<n>]
#   <n>  snapshot number (default: next free BENCH_<n>.json)
#
# Pinned suite (a few minutes on a laptop):
#   * bench_concurrent_put, 4 writers, imm queue depth 1 vs 4 — the
#     pipelined-flush axis. Two shapes: sustained closed-loop (where a
#     deeper queue cannot beat the single background thread and is
#     expected to trade a few percent), and bursty traffic with a 5 ms
#     simulated table-sync latency (the pipeline's target case: the
#     queue absorbs each burst at memtable speed and flushes drain in
#     the gaps).
#   * bench_ingest --phase=load — bulk load vs. memtable backfill: 1M docs
#     on Embedded (the narrowest margin — its index is free at build
#     time, so ingest only skips WAL+memtable) and on Lazy (a real
#     index-maintenance write path), 200k on the remaining stand-alone
#     variants (Eager's read-modify-write backfill is ~30x slower; same
#     feed either way).
#   * bench_fig9_put_over_time — the paper's Figure 9 PUT-latency windows,
#     guarding the default (non-pipelined) write path against regressions.
#   * bench_serve — the sharded serving layer: mixed PUT/LOOKUP (10%
#     lookups, 4 client threads) across all five variants, unsharded
#     baseline vs. ShardedDB at 1/2/4 shards over the real protocol
#     server. On a single-core container the shard counts are expected to
#     tie (the sweep records the shape, and that N=1 costs nothing over
#     unsharded); scaling shows on multi-core hardware.
#   * bench_serve --mode=overload — offered-load sweep past saturation:
#     write-heavy no-retry clients against small-memtable shards with
#     shedding on, thread count stepped 1..16. Goodput should hold while
#     the excess answers RETRY_LATER and acknowledged-write p99 stays
#     bounded — the overload-proofing contract, as a number.
#   * bench_range_scan — primary range scans through the heap-merge
#     iterator, selectivity sweep (1‰ .. 1000‰) across all five variants
#     over deterministic LSM shapes: the per-Next heap reshuffle over the
#     memtable, L0 files and one run per level below L0.
#   * bench_micro_substrate, block-read kernels — CRC32C on the dispatched
#     path and on the portable fallback, and SimpleLZ on a TweetGenerator
#     data block: the per-block checksum and decompress stages every
#     uncached block read pays.
#     Also the per-record kernels: UserID extraction from a TweetGenerator
#     document (every LOOKUP's attribute check) and decoding a 910-entry
#     posting list (every Lazy/Eager/Composite LOOKUP and Lazy merge).
#   * bench_fig11_ctime --json — the paper's Figure 11 LOOKUP and
#     RANGELOOKUP cells on the time-correlated CreationTime index, one row
#     per (figure, K, variant): p50 latency, and per query the candidates
#     validated against the primary table and the Embedded GetLite checks.
#   * bench_fig10_userid --json — the same cells for Figure 10 on the
#     non-time-correlated UserID index (LOOKUP, and RANGELOOKUP over 10 and
#     100 users).
#   * bench_parallel_query --parallelism=0,2,4 — top-K LOOKUP and
#     RANGELOOKUP on Lazy, Eager, Composite and Embedded behind a 50 us
#     per-read latency Env: the read pool's speedup over the sequential
#     path at 2 and 4 executors, each checked byte-identical to it.
set -euo pipefail

cd "$(dirname "$0")/.."

n="${1:-}"
if [[ -z "${n}" ]]; then
  n=1
  while [[ -e "BENCH_${n}.json" ]]; do n=$((n + 1)); done
fi
out="BENCH_${n}.json"

echo "==> Release build"
cmake --preset release >/dev/null
cmake --build --preset release -j "$(nproc)" >/dev/null
bin=build

tmp="$(mktemp)"
trap 'rm -f "${tmp}"' EXIT

git_rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
printf '{"bench":"meta","snapshot":%s,"git":"%s","date":"%s","nproc":%s}\n' \
  "${n}" "${git_rev}" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$(nproc)" >> "${tmp}"

echo "==> concurrent_put sustained (4 writers, imm depth 1 vs 4)"
"${bin}/bench/bench_concurrent_put" --threads=4 --max_imm=1 >> "${tmp}"
"${bin}/bench/bench_concurrent_put" --threads=4 --max_imm=4 >> "${tmp}"

echo "==> concurrent_put bursty + 5ms table sync (imm depth 1 vs 4)"
"${bin}/bench/bench_concurrent_put" --threads=4 --max_imm=1 \
  --burst_ops=8192 --burst_gap_ms=150 --table_sync_latency_us=5000 \
  >> "${tmp}"
"${bin}/bench/bench_concurrent_put" --threads=4 --max_imm=4 \
  --burst_ops=8192 --burst_gap_ms=150 --table_sync_latency_us=5000 \
  >> "${tmp}"

echo "==> ingest load (1M docs, Embedded + Lazy)"
"${bin}/bench/bench_ingest" --phase=load --docs=1000000 \
  --types=embedded,lazy >> "${tmp}"

echo "==> ingest load (200k docs, remaining stand-alone variants)"
"${bin}/bench/bench_ingest" --phase=load --docs=200000 \
  --types=noindex,eager,composite >> "${tmp}"

echo "==> fig9 put-over-time (default write path)"
"${bin}/bench/bench_fig9_put_over_time" --json >> "${tmp}"

echo "==> serve shard sweep (mixed PUT/LOOKUP, unsharded + 1/2/4 shards)"
"${bin}/bench/bench_serve" --mode=unsharded --threads=4 --ops=20000 \
  --lookup_frac=10 >> "${tmp}"
for shards in 1 2 4; do
  "${bin}/bench/bench_serve" --mode=server --shards="${shards}" --threads=4 \
    --ops=20000 --lookup_frac=10 >> "${tmp}"
done

echo "==> serve overload sweep (no-retry writers, shedding on)"
"${bin}/bench/bench_serve" --mode=overload --shards=2 --ops=20000 \
  --types=lazy >> "${tmp}"

echo "==> range scans (heap-merge, selectivity sweep)"
"${bin}/bench/bench_range_scan" --n=40000 --reps=40 >> "${tmp}"

echo "==> fig10 UserID LOOKUP / RANGELOOKUP cells"
"${bin}/bench/bench_fig10_userid" --json >> "${tmp}"

echo "==> fig11 CreationTime LOOKUP / RANGELOOKUP cells"
"${bin}/bench/bench_fig11_ctime" --json >> "${tmp}"

echo "==> parallel query (50 us read latency, read_parallelism 0/2/4)"
"${bin}/bench/bench_parallel_query" --parallelism=0,2,4 >> "${tmp}"

echo "==> kernels (crc32c, SimpleLZ, JSON extract, posting-list parse)"
"${bin}/bench/bench_micro_substrate" \
  --benchmark_filter='BM_Crc32c|BM_SimpleLZ|BM_JsonExtract|BM_PostingListParse' \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
  --benchmark_format=json |
  python3 -c 'import json, sys
for b in json.load(sys.stdin)["benchmarks"]:
    if b.get("aggregate_name") == "median":
        print(json.dumps({"bench": "micro_kernel", "name": b["run_name"],
                          "ns": round(b["real_time"], 1),
                          "bytes_per_second": round(b["bytes_per_second"])}))' \
  >> "${tmp}"

mv "${tmp}" "${out}"
trap - EXIT
echo "==> wrote ${out} ($(wc -l < "${out}") lines)"