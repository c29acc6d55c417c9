// Options controlling a DB instance, plus per-read/per-write option structs.

#ifndef LEVELDBPP_DB_OPTIONS_H_
#define LEVELDBPP_DB_OPTIONS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "compress/codec.h"

namespace leveldbpp {

class AttributeExtractor;
class Cache;
class Comparator;
class Env;
class FilterPolicy;
class Snapshot;
class Statistics;
class ValueMerger;

struct Options {
  /// Comparator for user keys. Default: bytewise.
  const Comparator* comparator = nullptr;  // nullptr => BytewiseComparator()

  /// If true, create the database if missing.
  bool create_if_missing = true;
  /// If true, aggressively verify checksums and fail fast on corruption.
  bool paranoid_checks = false;

  /// Environment used for all file access. Default: Env::Posix().
  Env* env = nullptr;

  /// Optional engine-wide counters; benches attribute I/O through this.
  Statistics* statistics = nullptr;

  /// Amount of data to build up in the memtable before flushing to an L0
  /// SSTable. The default is deliberately small (the paper's experiments are
  /// scaled down so benches still develop 4+ levels on laptop-size data).
  size_t write_buffer_size = 1 << 20;  // 1 MB

  /// Approximate uncompressed size of SSTable data blocks.
  size_t block_size = 4096;

  /// Number of keys between block restart points.
  int block_restart_interval = 16;

  /// Target size of one SSTable file.
  size_t max_file_size = 512 * 1024;

  /// Per-block compression (paper default: Snappy; here SimpleLZ).
  CompressionType compression = kSimpleLZCompression;

  /// Optional block cache; nullptr = no block cache (paper configuration).
  Cache* block_cache = nullptr;

  /// Primary-key filter policy (per data block). nullptr disables filters.
  const FilterPolicy* filter_policy = nullptr;

  /// Secondary attributes indexed by the EMBEDDED index: for each name,
  /// every SSTable gets per-block bloom filters and zone maps. Empty for
  /// plain tables and for stand-alone index tables.
  std::vector<std::string> secondary_attributes;

  /// Filter policy for embedded secondary blooms (defaults to
  /// `filter_policy`'s bits when nullptr; Appendix C.1 sweeps this).
  const FilterPolicy* secondary_filter_policy = nullptr;

  /// Extracts secondary-attribute values from record values. Required when
  /// `secondary_attributes` is non-empty.
  const AttributeExtractor* attribute_extractor = nullptr;

  /// When set, duplicate user keys met during compaction are MERGED with
  /// this instead of older versions being dropped. Used by the Stand-Alone
  /// Lazy index table to merge posting-list fragments.
  const ValueMerger* value_merger = nullptr;

  /// Number of L0 files that triggers a compaction into L1.
  int l0_compaction_trigger = 4;

  /// Soft limit on L0 files: in background-compaction mode each write is
  /// delayed 1ms beyond this so one compaction can win CPU from writers
  /// (the classic slowdown rung; ignored in synchronous mode).
  int l0_slowdown_writes_trigger = 8;

  /// Hard limit on L0 files: writes stall (synchronous mode: compact
  /// inline; background mode: park on the stall ladder) beyond this.
  int l0_stop_writes_trigger = 12;

  /// Opt-in concurrent write path. When true, memtable flushes and
  /// size-triggered compactions run on a background thread
  /// (Env::Schedule) and DBImpl::Write stalls via the slowdown/stop
  /// ladder instead of compacting inline. The default (false) preserves
  /// the paper's deterministic single-threaded behavior byte-for-byte,
  /// which the Figure 7-15 reproduction benches depend on for exact I/O
  /// attribution. Concurrent Write/Get/scan calls are thread-safe in BOTH
  /// modes via the group-commit writer queue.
  bool background_compaction = false;

  /// Flush pipeline depth: how many immutable memtables may queue behind
  /// the active one before writers stall. The default (1) reproduces the
  /// classic single-slot behavior — a writer that fills the memtable while
  /// a flush is in flight parks on the stall ladder. Values > 1 (clipped
  /// to 8) let `MakeRoomForWrite` rotate and keep accepting writes while
  /// earlier memtables drain oldest-first, smoothing the stall spikes of
  /// Figs 8-9 under concurrent writers. Only useful together with
  /// `background_compaction`; the synchronous mode flushes inline and
  /// never accumulates a queue. Memory stays bounded: rotation caps the
  /// queue at max_immutable_memtables memtables of ~write_buffer_size
  /// each, so the total is roughly
  /// (1 + max_immutable_memtables) * write_buffer_size.
  int max_immutable_memtables = 1;

  /// How many SSTables one IngestExternalFiles call may build
  /// concurrently (on the same shared pool as read_parallelism; the
  /// calling thread included). The feed is still consumed strictly in
  /// order — only the CPU-heavy table builds (compression, checksums,
  /// filters, zone maps) fan out, one wave of up to this many chunks at a
  /// time. 1 builds strictly serially. Results are identical at any
  /// value; only wall-clock changes. Clipped to [1, 16].
  int ingest_parallelism = 4;

  /// Opt-in parallel read path. When > 1, MultiGet batches, the
  /// stand-alone indexes' candidate resolution, and the Embedded index's
  /// block scans fan out onto a shared fixed-size thread pool with up to
  /// this many concurrent executors (the calling thread included). The
  /// default (0, like 1) keeps every read strictly sequential on the
  /// calling thread, preserving the paper benches' deterministic ordering
  /// and exact I/O attribution. Parallel mode returns byte-identical
  /// results; only wall-clock and scheduling change. See DESIGN.md
  /// "Parallel read path".
  int read_parallelism = 0;

  /// Force every write through the WriteOptions{sync=true} path, fsyncing
  /// the WAL before the write is acknowledged. Set on SecondaryDBOptions::
  /// base, it is SecondaryDB's crash-consistency mode: it makes the internal
  /// index-table writes durable without threading a WriteOptions through
  /// every index hook, and orders each Put index-first. It is also
  /// what the fault-injection crash tests flip on so that "acknowledged"
  /// equals "survives power loss". Default off: the paper benches measure
  /// the buffered write path.
  bool sync_writes = false;

  /// When non-null, write sequence numbers are claimed from this shared
  /// counter (fetch_add under the writer queue) instead of the instance's
  /// own LastSequence + 1. ShardedDB points every shard's primary table at
  /// one counter so sequence numbers are globally comparable across shards:
  /// cross-shard top-K merges order results by sequence exactly as a single
  /// instance would, and a reopened shard bumps the counter to its
  /// recovered LastSequence so new claims stay fresh. The counter holds the
  /// LAST claimed sequence (0 = none yet). Per-instance sequences may skip
  /// values claimed by other shards; recovery and snapshots only ever rely
  /// on monotonicity, which per-shard claim order preserves. Default null:
  /// the instance numbers its own writes densely, byte-identical to the
  /// paper engine.
  std::atomic<uint64_t>* shared_sequence = nullptr;

  /// Max bytes for level 1; level i holds base * kLevelSizeMultiplier^(i-1)
  /// (the level count and multiplier are fixed, see db/dbformat.h).
  uint64_t max_bytes_for_level_base = 4ull << 20;  // 4 MB
};

struct ReadOptions {
  /// Verify block checksums on every read. Defaults ON: a flipped bit must
  /// never surface as data. In non-paranoid mode a failed check quarantines
  /// the block and the lookup falls through to older levels; paranoid mode
  /// fails fast. CPU-only cost — the I/O tickers the paper's figures are
  /// built from are identical either way.
  bool verify_checksums = true;
  /// Populate the block cache with blocks read by this operation.
  bool fill_cache = true;
  /// Read as of this snapshot; nullptr = latest.
  const Snapshot* snapshot = nullptr;
};

struct WriteOptions {
  /// fsync the WAL before acknowledging the write.
  bool sync = false;

  /// Never park on the write-stall ladder: if admitting this write would
  /// require waiting (L0 slowdown delay, full immutable-memtable queue, or
  /// the L0 stop rung), return Status::Busy immediately instead of blocking
  /// the calling thread. Nothing is applied on a Busy return, so the caller
  /// can safely retry after a backoff — the serving layer uses this to shed
  /// writes to a stalled shard with a retry-after hint rather than wedging
  /// a connection thread. Only meaningful with `background_compaction`
  /// (the synchronous mode makes room by compacting inline on this very
  /// thread, so there is nothing to wait for and the flag is ignored).
  /// A sticky background error still surfaces as that error, not Busy.
  bool no_stall = false;

  /// Non-zero: the exact sequence number this write's first record must be
  /// assigned (the caller reserved it — e.g. SecondaryDB's crash-ordered
  /// Put claims a sequence, durably writes index postings tagged with it,
  /// THEN issues the primary write). Such a write is never merged into a
  /// group-commit batch with other writers, so the reservation cannot be
  /// renumbered. 0 (default): the engine assigns the next sequence itself.
  uint64_t assigned_seq = 0;
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_DB_OPTIONS_H_
