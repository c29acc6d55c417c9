#!/usr/bin/env bash
# Full pre-merge check: release build + tests, then ThreadSanitizer and
# Address+UB Sanitizer builds running the concurrency/parallel-read tests
# and a "faults" step running the fault-injection / crash-recovery suites
# under both sanitizers.
#
# Usage: scripts/check.sh [--sanitize-all]
#   --sanitize-all  run the entire test suite (not just the concurrency and
#                   parallel-read tests) under TSan and ASan; slow.
set -euo pipefail

cd "$(dirname "$0")/.."

# The tests that exercise cross-thread code paths: the group-commit writer
# queue and background compaction (Concurrency*), the parallel query engine
# (MultiGet*, ParallelQuery*), and reads over a queue of immutable memtables
# while the background lane holds their flushes (ImmQueueRead*). Also the
# block-read kernels (Crc32c*, SimpleLZ*): the hardware CRC path and the
# decoder's over-wide copies, whose bounds ASan checks on exact buffers. And
# the JSON scanner's suites (Json*, JsonAttributeExtractor*, PostingList*):
# it walks raw pointers over stored bytes, fuzzed by their differential
# tests. And the newest-first admission tests (*NewestFirst*): the Embedded
# scan holds records as slices into blocks its pool tasks decoded until the
# calling thread admits them. And the ParallelRun contract itself
# (ThreadPool*): its tasks write plain slots that only the region barrier
# publishes to the caller. And the point read's block memo (BlockMemo*,
# *PointSeek*, *ReusedBuffer*): a sweep's lookups seek into a block that a
# reused buffer holds, and a query holds one read view across the pool's
# runs. And the Lazy index's append-only memtable (LazyConcurrency*,
# LazyMemtableGrowsLinearly*, LazyFlushWritesOneFragmentPerKey*): reads
# and flushes merge a memtable's versions of a key, held as slices into its
# arena, while writers append more. And the candidate loop's bookkeeping
# (KeySet*, TopK*): the key set addresses keys by offset into one growing
# arena, and the top-K collector moves records between slots by index.
# And the recovery flush's drop rule (RecoveryFlushKeepsOneVersionPerKey).
SAN_FILTER="-R Concurrency|MultiGet|ParallelQuery|ImmQueueRead|Crc32c|SimpleLZ|Json|JsonAttributeExtractor|PostingList|NewestFirst|ShardedDBTest.ParallelReadsMatchUnsharded|ThreadPool|BlockMemo|PointSeek|ReusedBuffer|LazyConcurrency|LazyMemtableGrowsLinearly|LazyFlushWritesOneFragmentPerKey|KeySet|TopK|RecoveryFlushKeepsOneVersionPerKey"
if [[ "${1:-}" == "--sanitize-all" || "${1:-}" == "--tsan-all" ]]; then
  SAN_FILTER=""
fi

echo "==> Release build"
cmake --preset release
cmake --build --preset release -j "$(nproc)"

echo "==> Release tests"
ctest --preset release -j "$(nproc)"

echo "==> TSan build"
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"

echo "==> TSan tests (${SAN_FILTER:-full suite})"
# halt_on_error so a race fails the run instead of just printing.
TSAN_OPTIONS="halt_on_error=1" ctest --preset tsan ${SAN_FILTER:+-R "${SAN_FILTER#-R }"}

echo "==> ASan build"
cmake --preset asan
cmake --build --preset asan -j "$(nproc)"

echo "==> ASan tests (${SAN_FILTER:-full suite})"
ASAN_OPTIONS="halt_on_error=1" ctest --preset asan ${SAN_FILTER:+-R "${SAN_FILTER#-R }"}

# Crash-consistency: the FaultInjection / CrashRecovery / RandomizedCrash
# suites drive every index variant through write -> crash -> reopen cycles.
# Run them under both sanitizers (they are quick but memory-intensive, so
# they are not part of the default SAN_FILTER above). Skipped when
# --sanitize-all already ran the full suites.
FAULT_FILTER="FaultInjection|CrashRecovery|RandomizedCrash"
if [[ -n "${SAN_FILTER}" ]]; then
  echo "==> TSan fault-injection tests"
  TSAN_OPTIONS="halt_on_error=1" ctest --preset tsan -R "${FAULT_FILTER}"
  echo "==> ASan fault-injection tests"
  ASAN_OPTIONS="halt_on_error=1" ctest --preset asan -R "${FAULT_FILTER}"
fi

# Corruption survival: the Corruption / Repair suites bit-flip every file
# class a store owns (data/index/meta blocks, MANIFEST, CURRENT, WAL tail)
# and run the RepairDB -> RebuildIndex -> verify drill across all five index
# variants. The salvage path copies raw blocks around, so run it under ASan.
# Skipped when --sanitize-all already ran the full suites.
REPAIR_FILTER="Corruption|Repair"
if [[ -n "${SAN_FILTER}" ]]; then
  echo "==> ASan corruption/repair tests"
  ASAN_OPTIONS="halt_on_error=1" ctest --preset asan -R "${REPAIR_FILTER}"
fi

# Ingestion: the pipelined-flush suite drives multiple writers against a
# deep immutable-memtable queue (TSan: rotation, stall ladder, background
# flush all cross threads), and the bulk-load path splices externally built
# SSTables (ASan: buffer handoffs, feed chunking).
# Skipped when --sanitize-all already ran the full suites.
if [[ -n "${SAN_FILTER}" ]]; then
  echo "==> TSan ingest tests"
  TSAN_OPTIONS="halt_on_error=1" ctest --preset tsan -L ingest
  echo "==> ASan ingest tests"
  ASAN_OPTIONS="halt_on_error=1" ctest --preset asan -L ingest
fi

# Iterators: the differential iterator-model harness (280 randomized
# rounds of snapshot reads, scans, flush/compaction/ingest interleavings,
# byte-identical across read_parallelism 0/4) plus the directed
# snapshot-under-mutation suite. Snapshot pinning crosses the
# writer/background threads (TSan) and iterators pin memtables and table
# files across compactions (ASan). Skipped when --sanitize-all already ran
# the full suites.
if [[ -n "${SAN_FILTER}" ]]; then
  echo "==> TSan iterator tests"
  TSAN_OPTIONS="halt_on_error=1" ctest --preset tsan -L iterator
  echo "==> ASan iterator tests"
  ASAN_OPTIONS="halt_on_error=1" ctest --preset asan -L iterator
fi

# Observability: PerfContext mirrors every Statistics::Record on the query
# thread and ParallelRun merges task-local contexts across the pool, so the
# suite is a natural race detector — run it under TSan. Skipped when
# --sanitize-all already ran the full suites.
if [[ -n "${SAN_FILTER}" ]]; then
  echo "==> TSan observability tests"
  TSAN_OPTIONS="halt_on_error=1" ctest --preset tsan -L observability
fi

# Serving: the sharded equivalence matrix, the wire-protocol gauntlet, and
# the chaos suite (stalled/failed/delayed shards, killed connections,
# deadline storms behind a live server). The server is thread-per-connection
# over a shard fan-out over the shared pool, with a per-shard background
# lane — four thread populations interleaving (TSan) — and the frame codec
# parses attacker-controlled bytes (ASan), including the fuzzed malformed
# frames. Skipped when --sanitize-all already ran the full suites.
if [[ -n "${SAN_FILTER}" ]]; then
  echo "==> TSan serving tests"
  TSAN_OPTIONS="halt_on_error=1" ctest --preset tsan -L serving
  echo "==> ASan serving tests"
  ASAN_OPTIONS="halt_on_error=1" ctest --preset asan -L serving
fi

# End-to-end serving smoke: start the release server binary on an ephemeral
# port, round-trip PUT/GET/LOOKUP through the CLI client, and shut it down.
echo "==> Server smoke test"
SMOKE_DB="$(mktemp -d)/smoke_store"
build/tools/leveldbpp_server --db="${SMOKE_DB}" --shards=2 --port=0 \
  --type=lazy --attrs=UserID,CreationTime > "${SMOKE_DB}.log" 2>&1 &
SMOKE_PID=$!
trap 'kill "${SMOKE_PID}" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  grep -q "listening on" "${SMOKE_DB}.log" 2>/dev/null && break
  sleep 0.1
done
SMOKE_PORT="$(sed -n 's/.*:\([0-9]*\)$/\1/p' "${SMOKE_DB}.log" | head -1)"
build/tools/leveldbpp_client --port="${SMOKE_PORT}" ping
build/tools/leveldbpp_client --port="${SMOKE_PORT}" put smoke '{"UserID":"u1","CreationTime":"5"}'
build/tools/leveldbpp_client --port="${SMOKE_PORT}" get smoke | grep -q '"UserID":"u1"'
build/tools/leveldbpp_client --port="${SMOKE_PORT}" lookup UserID u1 1 | grep -q smoke
# A malformed or negative K is a usage error (exit 2), never "no limit".
for SMOKE_CMD in "lookup UserID u1 abc" "lookup UserID u1 -1" \
                 "range UserID u0 u9 abc"; do
  SMOKE_RC=0
  # shellcheck disable=SC2086  # word-split the command on purpose
  build/tools/leveldbpp_client --port="${SMOKE_PORT}" ${SMOKE_CMD} \
    > /dev/null 2>&1 || SMOKE_RC=$?
  if [[ "${SMOKE_RC}" != 2 ]]; then
    echo "leveldbpp_client ${SMOKE_CMD}: exit ${SMOKE_RC}, want 2"
    exit 1
  fi
done
kill "${SMOKE_PID}"
wait "${SMOKE_PID}" 2>/dev/null || true
trap - EXIT
# A malformed server flag is a usage error (exit 2) before anything opens;
# the timeout turns a server that starts anyway into a failure.
for SMOKE_FLAG in "--max-inflight=xyz" "--shards=abc" "--port=-1"; do
  SMOKE_RC=0
  timeout 10 build/tools/leveldbpp_server --db="${SMOKE_DB}.flags" \
    --shards=2 --port=0 --type=lazy --attrs=UserID "${SMOKE_FLAG}" \
    > /dev/null 2>&1 || SMOKE_RC=$?
  if [[ "${SMOKE_RC}" != 2 ]]; then
    echo "leveldbpp_server ${SMOKE_FLAG}: exit ${SMOKE_RC}, want 2"
    exit 1
  fi
done
rm -rf "$(dirname "${SMOKE_DB}")"

# Docs drift: stats_doc_test cross-checks docs/METRICS.md and
# queries_doc_test docs/QUERIES.md against the code registries in both
# directions (both are part of the release ctest run above, but a
# dedicated step makes a doc-only failure obvious).
echo "==> Metrics + query manual coverage"
ctest --preset release -R 'StatsDocTest|QueriesDocTest'

echo "==> All checks passed"
