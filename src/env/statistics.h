// Statistics: engine-wide event counters.
//
// The paper's analysis figures (9c, 13, 14, 15) plot *cumulative disk I/O
// counts*, which are hardware independent. Every disk access and pruning
// decision in the engine increments one of these tickers; benches snapshot
// them around operation groups to attribute I/O to GET / PUT / LOOKUP /
// compaction exactly as the paper does.

#ifndef LEVELDBPP_ENV_STATISTICS_H_
#define LEVELDBPP_ENV_STATISTICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "util/histogram.h"

namespace leveldbpp {

enum Ticker : uint32_t {
  kBlockRead = 0,        // data/meta block fetched from a file
  kBlockReadBytes,       // bytes of the above
  kBlockReadReused,      // point lookups served a block a sweep had decoded
  kBlockCacheHit,        // block served from the block cache
  kBlockCacheMiss,
  kPageCacheHit,         // block served from the simulated OS buffer cache
  kCompactionBytesRead,  // bytes read by compactions (incl. flushes)
  kCompactionBytesWritten,
  kCompactionCount,
  kFlushCount,
  kWalBytesWritten,
  kBloomPrimaryChecked,   // primary-key bloom probes
  kBloomPrimaryUseful,    // probes that returned "definitely absent"
  kBloomSecondaryChecked, // embedded secondary-attribute bloom probes
  kBloomSecondaryUseful,
  kZoneMapFilePruned,     // whole SSTable skipped by file-level zone map
  kZoneMapBlockPruned,    // single block skipped by block-level zone map
  kGetLiteCalls,
  kGetLiteConfirmReads,   // rare confirming reads after a bloom positive
  kSeekDiskReads,         // blocks read while seeking iterators
  kWriteStallMicros,      // writers parked on the stop ladder (imm full / L0)
  kWriteSlowdownMicros,   // 1ms delays injected at the L0 slowdown trigger
  kGroupCommitBatches,    // combined WAL appends issued by the writer queue
  kGroupCommitWrites,     // Write() calls satisfied by those appends
  kMultiGetBatches,       // MultiGet calls
  kMultiGetKeys,          // keys looked up across those calls
  kParallelTasks,         // tasks run inside ParallelRun regions
  kParallelWaitMicros,    // caller time blocked on the fan-out barrier
  kFaultInjectedErrors,   // I/O errors injected by FaultInjectionEnv
  kRecoveryWalRecords,    // WAL batch records replayed during recovery
  kRecoveryTornTailBytes, // trailing WAL bytes skipped as a torn tail
  kCorruptionBlocksDetected,    // checksum mismatches seen by ReadBlock
  kCorruptionBlocksQuarantined, // distinct blocks entered into quarantine
  kRepairTablesSalvaged,  // tables RepairDB kept (possibly rewritten)
  kRepairTablesDropped,   // tables RepairDB archived as unreadable
  kIndexRebuildEntries,   // postings re-derived by RebuildIndex
  kBgErrorAutorecovered,  // background errors cleared by Resume
  kIngestFiles,           // SSTables spliced in by IngestExternalFiles
  kIngestBytes,           // bytes of the above
  kIngestKeys,            // records ingested (memtable+WAL bypassed)
  kShardWritesRouted,     // PUT/DELETE calls routed to a shard by ShardedDB
  kShardLookupFanouts,    // cross-shard LOOKUP/RANGELOOKUP fan-outs
  kShardMergeCandidates,  // per-shard results examined by the cross-shard merge
  kShardMergeEarlyStops,  // shard result lists cut short by WouldAdmit
  kServeConnections,      // connections accepted by the protocol server
  kServeRequests,         // request frames decoded and executed
  kServeMalformedFrames,  // frames rejected by the wire codec
  kServeBytesRead,        // payload + header bytes read off connections
  kServeBytesWritten,     // response bytes written to connections
  kIterCreated,           // public DB iterators created (NewIterator)
  kIterSnapshotsAcquired,  // GetSnapshot calls
  kIterSnapshotsReleased,  // ReleaseSnapshot calls
  kServeRequestsShed,      // requests refused with RETRY_LATER (admission
                           // control or a no_stall write hitting the ladder)
  kServeDeadlineExceeded,  // requests answered DEADLINE_EXCEEDED
  kServeRetriesSuggested,  // responses that carried a retry-after hint
  kShardHealthChecks,      // ShardHealth() probes (incl. the HEALTH wire op)
  kLookupDegraded,         // fan-out queries answered with partial results
  kTickerCount,
};

/// Human-readable ticker names, index-aligned with the Ticker enum.
const char* TickerName(Ticker t);

/// Latency histograms, one per operation class the paper times (Figures
/// 8-12 plot latency distributions per index variant). Values are recorded
/// in microseconds.
enum HistogramType : uint32_t {
  kHistPutMicros = 0,          // DBImpl::Write, queue wait included
  kHistGetMicros,              // DBImpl::Get (public point lookups only)
  kHistLookupNoIndexMicros,    // SecondaryDB::Lookup/RangeLookup per variant
  kHistLookupEmbeddedMicros,
  kHistLookupLazyMicros,
  kHistLookupEagerMicros,
  kHistLookupCompositeMicros,
  kHistFlushMicros,            // memtable flush (CompactMemTable)
  kHistCompactionMicros,       // merging compaction (DoCompactionWork)
  kHistWalSyncMicros,          // fsync of the WAL inside Write
  kHistFlushQueueDepth,        // imm-queue depth after each rotation (count,
                               // not micros; depth > 1 only with pipelining)
  kHistogramCount,
};

/// Human-readable histogram names, index-aligned with HistogramType.
const char* HistogramName(HistogramType h);

namespace perf_internal {
/// Thread-local mirror that Statistics::Record also adds into when a
/// PerfContext is active on the calling thread (see util/perf_context.h).
/// Null — the default — costs the hot path one predictable branch. Points at
/// PerfContext::tickers.data(), so per-query attribution sees every ticker
/// recorded by this thread regardless of WHICH Statistics object it hit
/// (primary DB and each standalone index own separate ones).
extern thread_local uint64_t* tls_tickers;
}  // namespace perf_internal

class Statistics {
 public:
  void Record(Ticker t, uint64_t count = 1) {
    tickers_[t].fetch_add(count, std::memory_order_relaxed);
    if (perf_internal::tls_tickers != nullptr) {
      perf_internal::tls_tickers[t] += count;
    }
  }

  uint64_t Get(Ticker t) const {
    return tickers_[t].load(std::memory_order_relaxed);
  }

  void Reset() {
    for (auto& t : tickers_) t.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(hist_mu_);
    for (auto& h : histograms_) h.Clear();
  }

  /// Record one latency sample (microseconds) into a histogram.
  void RecordHistogram(HistogramType h, double value) {
    std::lock_guard<std::mutex> lock(hist_mu_);
    histograms_[h].Add(value);
  }

  /// Consistent copy of one histogram's current state.
  Histogram GetHistogram(HistogramType h) const {
    std::lock_guard<std::mutex> lock(hist_mu_);
    return histograms_[h];
  }

  /// Multi-line dump of all non-zero tickers.
  std::string ToString() const;

  /// Multi-line dump of all non-empty histograms (count/avg/quantiles).
  std::string HistogramsToString() const;

 private:
  std::array<std::atomic<uint64_t>, kTickerCount> tickers_{};
  mutable std::mutex hist_mu_;
  Histogram histograms_[kHistogramCount];  // guarded by hist_mu_
};

/// Snapshot of all tickers; subtract two snapshots to attribute I/O to an
/// operation window.
struct StatsSnapshot {
  std::array<uint64_t, kTickerCount> values{};

  static StatsSnapshot Take(const Statistics& s) {
    StatsSnapshot snap;
    for (uint32_t i = 0; i < kTickerCount; i++) {
      snap.values[i] = s.Get(static_cast<Ticker>(i));
    }
    return snap;
  }

  uint64_t Delta(const StatsSnapshot& earlier, Ticker t) const {
    return values[t] - earlier.values[t];
  }
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_ENV_STATISTICS_H_
