#include "env/statistics.h"

#include <cstdio>

namespace leveldbpp {

const char* TickerName(Ticker t) {
  switch (t) {
    case kBlockRead: return "block.read.count";
    case kBlockReadBytes: return "block.read.bytes";
    case kBlockReadReused: return "block.read.reused";
    case kBlockCacheHit: return "block.cache.hit";
    case kBlockCacheMiss: return "block.cache.miss";
    case kPageCacheHit: return "page.cache.hit";
    case kCompactionBytesRead: return "compaction.bytes.read";
    case kCompactionBytesWritten: return "compaction.bytes.written";
    case kCompactionCount: return "compaction.count";
    case kFlushCount: return "flush.count";
    case kWalBytesWritten: return "wal.bytes.written";
    case kBloomPrimaryChecked: return "bloom.primary.checked";
    case kBloomPrimaryUseful: return "bloom.primary.useful";
    case kBloomSecondaryChecked: return "bloom.secondary.checked";
    case kBloomSecondaryUseful: return "bloom.secondary.useful";
    case kZoneMapFilePruned: return "zonemap.file.pruned";
    case kZoneMapBlockPruned: return "zonemap.block.pruned";
    case kGetLiteCalls: return "getlite.calls";
    case kGetLiteConfirmReads: return "getlite.confirm.reads";
    case kSeekDiskReads: return "seek.disk.reads";
    case kWriteStallMicros: return "write.stall.micros";
    case kWriteSlowdownMicros: return "write.slowdown.micros";
    case kGroupCommitBatches: return "groupcommit.batches";
    case kGroupCommitWrites: return "groupcommit.writes";
    case kMultiGetBatches: return "multiget.batches";
    case kMultiGetKeys: return "multiget.keys";
    case kParallelTasks: return "query.parallel.tasks";
    case kParallelWaitMicros: return "query.parallel.wait.micros";
    case kFaultInjectedErrors: return "fault.injected.errors";
    case kRecoveryWalRecords: return "recovery.wal.records";
    case kRecoveryTornTailBytes: return "recovery.torn.tail.bytes";
    case kCorruptionBlocksDetected: return "corruption.blocks.detected";
    case kCorruptionBlocksQuarantined:
      return "corruption.blocks.quarantined";
    case kRepairTablesSalvaged: return "repair.tables.salvaged";
    case kRepairTablesDropped: return "repair.tables.dropped";
    case kIndexRebuildEntries: return "index.rebuild.entries";
    case kBgErrorAutorecovered: return "bg.error.autorecovered";
    case kIngestFiles: return "ingest.files";
    case kIngestBytes: return "ingest.bytes";
    case kIngestKeys: return "ingest.keys";
    case kShardWritesRouted: return "shard.writes.routed";
    case kShardLookupFanouts: return "shard.lookup.fanouts";
    case kShardMergeCandidates: return "shard.merge.candidates";
    case kShardMergeEarlyStops: return "shard.merge.early.stops";
    case kServeConnections: return "serve.connections";
    case kServeRequests: return "serve.requests";
    case kServeMalformedFrames: return "serve.frames.malformed";
    case kServeBytesRead: return "serve.bytes.read";
    case kServeBytesWritten: return "serve.bytes.written";
    case kIterCreated: return "iter.created";
    case kIterSnapshotsAcquired: return "iter.snapshots.acquired";
    case kIterSnapshotsReleased: return "iter.snapshots.released";
    case kServeRequestsShed: return "serve.requests.shed";
    case kServeDeadlineExceeded: return "serve.deadline.exceeded";
    case kServeRetriesSuggested: return "serve.retries.suggested";
    case kShardHealthChecks: return "shard.health.checks";
    case kLookupDegraded: return "lookup.degraded";
    case kTickerCount: break;
  }
  return "unknown";
}

const char* HistogramName(HistogramType h) {
  switch (h) {
    case kHistPutMicros: return "put.micros";
    case kHistGetMicros: return "get.micros";
    case kHistLookupNoIndexMicros: return "lookup.noindex.micros";
    case kHistLookupEmbeddedMicros: return "lookup.embedded.micros";
    case kHistLookupLazyMicros: return "lookup.lazy.micros";
    case kHistLookupEagerMicros: return "lookup.eager.micros";
    case kHistLookupCompositeMicros: return "lookup.composite.micros";
    case kHistFlushMicros: return "flush.micros";
    case kHistCompactionMicros: return "compaction.micros";
    case kHistWalSyncMicros: return "wal.sync.micros";
    case kHistFlushQueueDepth: return "flush.queue.depth";
    case kHistogramCount: break;
  }
  return "unknown";
}

std::string Statistics::HistogramsToString() const {
  std::lock_guard<std::mutex> lock(hist_mu_);
  std::string out;
  char buf[256];
  for (uint32_t i = 0; i < kHistogramCount; i++) {
    const Histogram& h = histograms_[i];
    if (h.Count() == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%-28s count %8llu  avg %10.1f  p50 %10.1f  p75 %10.1f  "
                  "max %10.1f\n",
                  HistogramName(static_cast<HistogramType>(i)),
                  static_cast<unsigned long long>(h.Count()), h.Average(),
                  h.Median(), h.Percentile(75), h.Max());
    out.append(buf);
  }
  return out;
}

std::string Statistics::ToString() const {
  std::string out;
  char buf[128];
  for (uint32_t i = 0; i < kTickerCount; i++) {
    uint64_t v = Get(static_cast<Ticker>(i));
    if (v != 0) {
      std::snprintf(buf, sizeof(buf), "%-28s %12llu\n",
                    TickerName(static_cast<Ticker>(i)),
                    static_cast<unsigned long long>(v));
      out.append(buf);
    }
  }
  return out;
}

}  // namespace leveldbpp
