// DBImpl: the LSM engine. Thread-safe, with two write-path modes:
//
//  * Synchronous (default, Options::background_compaction == false): the
//    paper's deterministic design (single-threaded LevelDB "so we can easily
//    isolate and explain the performance differences of the various indexing
//    methods") — memtable flushes and multi-level compactions run inline on
//    the writing thread when a trigger is hit, making runs deterministic and
//    I/O attribution exact.
//  * Background (Options::background_compaction == true): flushes and
//    size-triggered compactions run on Env's background thread; Write
//    stalls through the classic slowdown/stop ladder instead of compacting
//    inline.
//
// Both modes share one concurrency protocol: a single mutex_ guards all
// mutable state, concurrent writers park on a LevelDB-style group-commit
// queue (the front writer builds one combined batch, appends it to the WAL
// once, and applies it to the memtable), and every read takes one ReadView
// — the memtable, the immutable queue and the current Version pinned by
// reference count under one mutex_ hold — so reads never block on
// compaction I/O. See DESIGN.md "Concurrency model".
//
// Beyond the public DB surface, DBImpl exposes the internal hooks the
// secondary-index layer needs:
//   * GetWithMeta   — Get that also reports sequence number & level,
//   * IsNewestVersion — the paper's GetLite: metadata-only check whether a
//     (key, seq) record has been superseded,
//   * GetFragments — every fragment of a key, newest residence first,
//   * NewLevelIterators — one internal-key iterator per recency bucket
//     (memtable, each L0 file, each level), for level-by-level scans,
//   * EmbeddedScanBuckets — the Embedded index's memtable attribute lookup
//     plus its bucket-by-bucket scan over the per-block filters/zone maps.

#ifndef LEVELDBPP_DB_DB_IMPL_H_
#define LEVELDBPP_DB_DB_IMPL_H_

#include <atomic>
#include <deque>
#include <memory>
#include <set>
#include <string>

#include "db/db.h"
#include "db/dbformat.h"
#include "db/memtable.h"
#include "db/snapshot.h"
#include "db/version_set.h"
#include "db/write_batch.h"
#include "env/statistics.h"
#include "port/port.h"
#include "port/thread_annotations.h"
#include "table/quarantine.h"
#include "wal/log_writer.h"

namespace leveldbpp {

class DBImpl : public DB {
 public:
  DBImpl(const Options& raw_options, const std::string& dbname);
  DBImpl(const DBImpl&) = delete;
  DBImpl& operator=(const DBImpl&) = delete;
  ~DBImpl() override;

  /// Typed variant of DB::Open for internal clients (the index layer).
  static Status Open(const Options& options, const std::string& name,
                     DBImpl** dbptr);

  // ---- DB interface ----
  Status Put(const WriteOptions&, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions&, const Slice& key) override;
  /// Apply `updates` atomically. `updates == nullptr` forces a memtable
  /// rotation + flush through the writer queue (internal use: CompactAll).
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  /// Batched Get: one ReadView for the whole batch, each key resolved by
  /// Get's own residence walk. The keys go to disk sorted, in runs that
  /// each pin a table once; with Options::read_parallelism > 1 the runs
  /// are dispatched onto the shared read pool.
  Status MultiGet(const ReadOptions& options, const std::vector<Slice>& keys,
                  std::vector<std::string>* values,
                  std::vector<Status>* statuses) override;
  Iterator* NewIterator(const ReadOptions&) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  bool GetProperty(const Slice& property, std::string* value) override;
  void CompactRange(const Slice* begin, const Slice* end) override;
  /// Clear a transient sticky background error (rotating the WAL — the old
  /// one may end in a torn append — and restarting pending flush/compaction
  /// work). Permanent errors (corruption) are returned unchanged.
  Status Resume() override;
  /// Bulk load: build SSTables from `feed` and splice them into the version
  /// at the deepest non-overlapping level (contract in db.h). Any memtable
  /// contents are flushed first so the fresh sequence numbers cannot be
  /// shadowed by older in-memory records.
  Status IngestExternalFiles(const IngestFeed& feed,
                             IngestStats* stats) override {
    return IngestExternalFiles(feed, stats, /*force_level0=*/false);
  }
  /// Internal variant: with `force_level0` every built file splices at
  /// level 0 regardless of overlap, making the batch the NEWEST residence.
  /// The Lazy index's bulk load into a non-empty table needs this: its
  /// merged posting fragments contain re-serialized OLD entries, and the
  /// level-by-level scan's early stop is only sound when such a fragment
  /// shadows (sits above) every fragment it merged.
  Status IngestExternalFiles(const IngestFeed& feed, IngestStats* stats,
                             bool force_level0);

  // ---- Extended surface for the secondary-index layer ----

  /// Where a record was found.
  struct RecordLocation {
    SequenceNumber seq = 0;
    int level = -1;  // -1 = memtable, -2 = immutable memtable, >= 0 = level
  };

  /// A consistent read view, RocksDB's SuperVersion idea: the live
  /// memtable, the immutable queue and the current Version, pinned by
  /// reference count under one mutex_ hold together with the sequence the
  /// read sees. Every engine read takes exactly one; destroying it drops
  /// the refs (the Version's under mutex_, since Unref may unlink it). The
  /// Embedded index holds one across its scan so that the scan and its
  /// GetLite checks read the same state.
  class ReadView {
   public:
    ReadView(DBImpl* db, const ReadOptions& options);
    ~ReadView();

    ReadView(const ReadView&) = delete;
    ReadView& operator=(const ReadView&) = delete;

    /// The newest version of `key` at the view's sequence in the
    /// memtables, newest memtable first. Returns false when no memtable
    /// holds the key; otherwise *s is OK (a value, moved into *value) or
    /// NotFound (a deletion), and *loc names the record.
    bool GetFromMemTables(const Slice& key, std::string* value,
                          RecordLocation* loc, Status* s) const;

    std::vector<MemTable*> mems;  // Live memtable, then imm queue newest first
    Version* current = nullptr;
    SequenceNumber snapshot = 0;

   private:
    DBImpl* const db_;
  };

  /// Get that also reports the winning record's sequence number and level.
  Status GetWithMeta(const ReadOptions& options, const Slice& key,
                     std::string* value, RecordLocation* loc);

  /// GetWithMeta against the caller's `view`, probing tables through the
  /// caller's `pins`: a sweep of keys that holds both takes the DB mutex
  /// once, pins each table once and, through the pins' BlockMemo, reads a
  /// block that consecutive keys share once. `options.snapshot` is not
  /// consulted; the view fixed the sequence.
  Status GetWithMeta(const ReadView& view, TablePins* pins,
                     const ReadOptions& options, const Slice& key,
                     std::string* value, RecordLocation* loc);

  /// Batched GetWithMeta (same runs and parallelism as MultiGet). The
  /// stand-alone indexes' batched candidate resolution is built on this.
  Status MultiGetWithMeta(const ReadOptions& options,
                          const std::vector<Slice>& keys,
                          std::vector<std::string>* values,
                          std::vector<RecordLocation>* locs,
                          std::vector<Status>* statuses);

  /// MultiGetWithMeta against the caller's `view`. The first run of the
  /// batch reads through the caller's `pins`; every other run, which may
  /// execute concurrently with it, through a set of its own.
  Status MultiGetWithMeta(const ReadView& view, TablePins* pins,
                          const ReadOptions& options,
                          const std::vector<Slice>& keys,
                          std::vector<std::string>* values,
                          std::vector<RecordLocation>* locs,
                          std::vector<Status>* statuses);

  /// The cache of open tables, for a caller that builds its own TablePins.
  TableCache* table_cache() const { return table_cache_.get(); }

  /// The paper's GetLite: set *newest to whether the record (key, seq) is
  /// still the newest version of `key`, preferring in-memory metadata (file
  /// ranges, primary-key blooms). Falls back to a bounded confirming block
  /// read only when a bloom filter reports a possible newer version
  /// (counted as kGetLiteConfirmReads). Read errors follow Get's rule
  /// (KeyProbe::Settles): a residence that cannot be read fails the check
  /// instead of passing the record off as the newest.
  ///
  /// When the caller knows where the record lives, passing `record_level`
  /// (-1 = memtable/imm) and, for level-0 records, `record_file` restricts
  /// the probe to strictly NEWER residences — the paper's "check levels 0
  /// to currentlevel-1" optimization; the record's own file is never
  /// probed, so the common case costs zero I/O. With the defaults the
  /// whole store is checked.
  ///
  /// The check reads `view` at its sequence; `record_level`/`record_file`
  /// name the record's residence in that view. The Embedded scan passes
  /// the view it scans, so a record and every version that could supersede
  /// it are judged against one state.
  Status IsNewestVersion(const ReadView& view, const Slice& key,
                         SequenceNumber seq, bool* newest,
                         int record_level = INT32_MAX,
                         uint64_t record_file = 0);

  /// Visit every visible fragment of `key`, one per residence, newest
  /// residence first: memtable, immutable memtables, each L0 file, each
  /// level. fn(recency_rank, seq, is_deletion, versions) gets the
  /// residence's versions of the key, newest first; recency_rank increases
  /// with age (0 = memtable). A table holds one version per key. A
  /// memtable holds one per write — a ValueMerger DB merges at flush, not
  /// on insert — so fn merges them into the rank's one fragment. A
  /// tombstone ends its residence's versions and reaches fn as a call of
  /// its own, with is_deletion set and no versions. `seq` is the newest
  /// version's. Return false from fn to stop early.
  using FragmentFn = std::function<bool(int, SequenceNumber, bool,
                                        const std::vector<Slice>&)>;
  Status GetFragments(const ReadOptions& options, const Slice& key,
                      const FragmentFn& fn);

  /// Internal-key iterators in recency order: memtable, immutable memtables
  /// (newest first), every L0 file (newest first), then one concatenated
  /// iterator per level >= 1. The holder owns the iterators and keeps their
  /// ReadView pinned until destroyed.
  struct LevelIterators {
    std::vector<Iterator*> iters;  // Owned
    // First index in `iters` that is a disk level (memtable iterators come
    // before it); used by callers that only care about disk residency.
    size_t first_disk = 0;
    LevelIterators();
    ~LevelIterators();

   private:
    friend class DBImpl;
    std::unique_ptr<ReadView> view_;
  };
  Status NewLevelIterators(const ReadOptions& options, LevelIterators* out);

  /// One candidate data block surfaced by the embedded per-block filters.
  struct BlockCandidate {
    Table* table;  // Pinned for the duration of the bucket visitor
    size_t block;
    int level;
    uint64_t file;
  };

  /// The Embedded index's scan (Algorithm 5), newest data first, over the
  /// caller's `view`. First the memtables' in-memory attribute trees report
  /// every record with attr in [lo, hi] and a sequence the view sees to
  /// `memtable_visitor` (live memtable, then the immutable queue newest
  /// first). Then the disk data goes by
  /// recency bucket — each L0 file on its own (newest first), then each
  /// level >= 1 — and per bucket every candidate block whose per-block
  /// filters/zone maps may hold a match is collected (the bucket's files
  /// probed concurrently when Options::read_parallelism > 1) and handed to
  /// `bucket_visitor` in (file, block) order with all tables pinned.
  /// Before each bucket, `level_boundary` gets the largest
  /// FileMetaData::max_seq among the files not yet scanned and may return
  /// false to stop (top-K satisfied and no unscanned file can hold a newer
  /// match — the bound keeps the early exit sound even when ingested or
  /// compacted files break the newest-level-first ordering). That is the
  /// only early-exit point.
  Status EmbeddedScanBuckets(
      const ReadView& view, const std::string& attr, const Slice& lo,
      const Slice& hi, const MemTable::SecondaryMatchFn& memtable_visitor,
      const std::function<void(const std::vector<BlockCandidate>&)>&
          bucket_visitor,
      const std::function<bool(SequenceNumber /*remaining_max_seq*/)>&
          level_boundary);

  /// Full scan of the newest visible version of every key, exposing each
  /// record's sequence number: fn(user_key, seq, value); return false to
  /// stop. Used by the NoIndex baseline (top-K needs sequence numbers the
  /// public iterator hides).
  Status ScanAll(const ReadOptions& options,
                 const std::function<bool(const Slice&, SequenceNumber,
                                          const Slice&)>& fn);

  /// Flush the memtable and compact every level fully (used by "Static"
  /// workloads that build the index before querying).
  Status CompactAll();

  /// Drive pending size-triggered compactions to quiescence.
  Status MaybeCompact();

  /// Block until the background thread has flushed the immutable memtable
  /// and drained pending size-triggered compactions (no-op in synchronous
  /// mode, where triggers never outlive the write that tripped them).
  Status WaitForBackgroundWork();

  /// Total bytes across all SSTables plus the live and queued memtables
  /// (Figure 8a); the "total-bytes" property.
  uint64_t TotalSizeBytes();

  /// Point-in-time view of the write-stall ladder, for backpressure
  /// surfacing (ShardedDB::ShardHealth / the HEALTH wire op). `rung` is the
  /// ladder step a write arriving NOW would hit: 0 = admitted immediately,
  /// 1 = L0 slowdown delay, 2 = immutable-memtable queue full, 3 = L0 stop.
  /// Higher rungs are sicker; `suggested_retry_micros` is the backoff a
  /// shed writer should apply before retrying (0 when healthy). A sticky
  /// background error is reported alongside — it gates writes regardless of
  /// the rung and clears only via Resume()/reopen.
  struct WriteStallState {
    int rung = 0;
    int l0_files = 0;
    size_t imm_queue_depth = 0;
    size_t imm_queue_capacity = 1;
    Status bg_error;
    uint64_t suggested_retry_micros = 0;
  };
  WriteStallState GetWriteStallState();

  const Options& options() const { return options_; }
  Statistics* statistics() const { return options_.statistics; }
  SequenceNumber LastSequence() const { return versions_->LastSequence(); }
  /// The sequence number the next single-record write will carry, for
  /// callers that must know it BEFORE issuing the write (SecondaryDB's
  /// index-first crash ordering). With Options::shared_sequence the value
  /// is CONSUMED from the shared counter and the caller must pass it back
  /// via WriteOptions::assigned_seq; without, it is a prediction that holds
  /// under the documented single-writer requirement (passing it back as
  /// assigned_seq then changes nothing and keeps the two modes uniform).
  SequenceNumber ClaimNextSequence() {
    if (options_.shared_sequence != nullptr) {
      return options_.shared_sequence->fetch_add(1,
                                                 std::memory_order_relaxed) +
             1;
    }
    return LastSequence() + 1;
  }
  VersionSet* versions() { return versions_.get(); }

 private:
  friend class DB;

  // One parked Write() call; the queue head performs the combined write.
  struct Writer;

  Status Recover(VersionEdit* edit) EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  Status RecoverLogFile(uint64_t log_number, VersionEdit* edit,
                        SequenceNumber* max_sequence)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  Status WriteLevel0Table(MemTable* mem, VersionEdit* edit)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  /// Blocks until mem_ has room (rotating / flushing / stalling as the mode
  /// dictates). `force` rotates even a non-full memtable. With `no_stall`
  /// (background mode only) the ladder never parks: any rung that would
  /// delay or wait returns Status::Busy instead, leaving all state
  /// untouched so the caller can retry later.
  Status MakeRoomForWrite(bool force, bool no_stall = false)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  /// Bytes held by the live memtable plus the queued immutable memtables
  /// ("approximate-memory-usage").
  uint64_t MemTableBytes() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  /// MemTableBytes() plus every level's SSTable bytes ("total-bytes",
  /// TotalSizeBytes()).
  uint64_t TotalBytes() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  /// Retire mem_ into the immutable queue and start a fresh memtable +
  /// WAL. On success mem_ is empty and the queue gained one entry tagged
  /// with the old WAL's number. Shared by MakeRoomForWrite and Resume.
  Status RotateMemTable() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  /// Collapse queued writers into one batch; see db_impl.cc.
  WriteBatch* BuildBatchGroup(Writer** last_writer, int* group_size)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  /// Make `s` the sticky background error (first error wins) and wake every
  /// stalled waiter. Once set, Put/Delete/Write reject immediately with it;
  /// only Resume() (transient errors) or reopening the DB clears the state.
  void RecordBackgroundError(const Status& s) EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  /// Schedule background work if any is pending (background mode only).
  void MaybeScheduleCompaction() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  static void BGWork(void* db);
  void BackgroundCall();

  /// Serialize flush/compaction work: at most one thread (front writer,
  /// background worker, or manual-compaction caller) may run
  /// CompactMemTable / DoCompactionWork at a time.
  void AcquireCompactionToken() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  void ReleaseCompactionToken() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  Status CompactMemTable() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  Status BackgroundCompaction() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  Status DoCompactionWork(Compaction* c) EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  void RemoveObsoleteFiles() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  /// Merged internal-key iterator over one ReadView, which it owns (and
  /// unpins on destruction); *snapshot receives the view's sequence.
  Iterator* NewInternalIterator(const ReadOptions&, SequenceNumber* snapshot);

  // Constant after construction
  Env* const env_;
  const InternalKeyComparator internal_comparator_;
  const InternalFilterPolicy internal_filter_policy_;
  const Options options_;  // options_.comparator == &internal_comparator_
  const std::string dbname_;

  // Checksum-failed (file, block) pairs seen by this DB's tables; reads
  // fall through past quarantined blocks in non-paranoid mode. Declared
  // before table_cache_ so it outlives the cached Tables that point at it
  // (via Table::SetProvenance). Exposed in the "leveldbpp.stats" property.
  BlockQuarantine quarantine_;

  std::unique_ptr<TableCache> table_cache_;

  // Guards all mutable state below. Flush/compaction I/O and the WAL append
  // + memtable insert of the front writer run with the mutex RELEASED;
  // in-flight state is protected by memtable/version refs, the writer
  // queue, pending_outputs_, and the compaction token.
  port::Mutex mutex_;
  std::atomic<bool> shutting_down_{false};
  // Set once Open succeeds. Only then does the version set describe the
  // directory, so only then may the destructor delete files it does not list.
  bool opened_ = false;
  // Signalled when background work finishes, the compaction token is
  // released, or an imm_ flush completes (the stall ladder waits here).
  port::CondVar background_work_finished_signal_;

  MemTable* mem_;
  // Immutable memtables awaiting flush, oldest at the front. Each entry
  // remembers the WAL that holds its data so CompactMemTable can advance
  // the MANIFEST's log number only past fully-flushed logs (a crash must
  // be able to replay every queued memtable still in the queue). Depth is
  // bounded by Options::max_immutable_memtables; the classic single-slot
  // behavior is a queue of capacity 1. CompactMemTable drains the FRONT
  // entry only, so L0 files keep recency order.
  struct ImmEntry {
    MemTable* mem;
    uint64_t log_number;  // WAL that contains this memtable's data
  };
  std::deque<ImmEntry> imm_queue_ GUARDED_BY(mutex_);
  std::unique_ptr<WritableFile> logfile_;
  uint64_t logfile_number_ GUARDED_BY(mutex_);
  std::unique_ptr<log::Writer> log_;

  // Group-commit writer queue (protocol in DBImpl::Write).
  std::deque<Writer*> writers_ GUARDED_BY(mutex_);
  WriteBatch tmp_batch_ GUARDED_BY(mutex_);

  std::unique_ptr<VersionSet> versions_ GUARDED_BY(mutex_);

  // Sequence numbers pinned by live GetSnapshot() handles; compaction's
  // drop rule retains any record version the oldest entry can still see.
  SnapshotList snapshots_ GUARDED_BY(mutex_);

  // Table files being written by an in-progress flush/compaction; these are
  // in no Version yet, so RemoveObsoleteFiles must not delete them.
  std::set<uint64_t> pending_outputs_ GUARDED_BY(mutex_);

  bool background_compaction_scheduled_ GUARDED_BY(mutex_) = false;
  bool compaction_token_held_ GUARDED_BY(mutex_) = false;
  // Set while CompactMemTable is flushing imm_. A flush only appends an L0
  // file, so it may run concurrently with a compaction merge (the mutex
  // serializes the MANIFEST updates); this flag just prevents two threads
  // from flushing the same imm_. See MakeRoomForWrite's inline-flush rung.
  bool flush_in_progress_ GUARDED_BY(mutex_) = false;
  // Set while an IngestExternalFiles call is splicing files; a second
  // concurrent ingest is rejected (sequence allocation would interleave).
  bool ingest_in_progress_ GUARDED_BY(mutex_) = false;

  Status bg_error_ GUARDED_BY(mutex_);  // Sticky error from flush/compaction

  std::string merge_scratch_;
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_DB_DB_IMPL_H_
