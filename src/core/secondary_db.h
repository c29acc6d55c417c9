// SecondaryDB: the LevelDB++ public API. A key-value store over JSON
// documents with secondary-attribute LOOKUP / RANGELOOKUP, parameterized by
// indexing strategy (Table 1's operation set + the paper's five index
// variants).
//
// Layout on disk:
//   <path>/primary            the data table
//   <path>/index_<attr>       one stand-alone index table per attribute
//                             (Lazy / Eager / Composite only)
//
// Each table carries its own Statistics so benches can attribute disk I/O
// and compaction work to the primary table vs. each index table, exactly
// as the paper's Figures 8b, 9c and 13-15 do.

#ifndef LEVELDBPP_CORE_SECONDARY_DB_H_
#define LEVELDBPP_CORE_SECONDARY_DB_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/secondary_index.h"
#include "table/filter_policy.h"

namespace leveldbpp {

struct SecondaryDBOptions {
  /// Base engine options (env, buffer sizes, compression, ...). The
  /// comparator / filter / extractor fields are managed internally.
  /// `base.sync_writes` is the crash-consistency mode: it syncs the WAL of
  /// the primary table AND every stand-alone index table before each write
  /// is acknowledged, and flips Put to write index entries BEFORE the
  /// primary record. With that ordering, a crash at any point leaves at
  /// worst a stale index posting — which query-time validation against the
  /// primary already filters — never a missing one; so an acknowledged Put
  /// is always queryable after recovery. Requires a single writer thread
  /// (Put predicts the primary's next sequence number) unless
  /// `base.shared_sequence` is set.
  Options base;

  /// Which of the five strategies indexes the attributes.
  IndexType index_type = IndexType::kEmbedded;

  /// Secondary attributes to index (e.g. {"UserID", "CreationTime"}).
  std::vector<std::string> indexed_attributes;

  /// Bloom bits/key for the Embedded index's per-block secondary filters
  /// (the paper uses 20 by default and sweeps 5..30 in Appendix C.1).
  int embedded_bloom_bits_per_key = 20;
};

class SecondaryDB {
 public:
  /// Open (creating if missing) a LevelDB++ store at `path`.
  static Status Open(const SecondaryDBOptions& options,
                     const std::string& path,
                     std::unique_ptr<SecondaryDB>* dbptr);

  SecondaryDB(const SecondaryDB&) = delete;
  SecondaryDB& operator=(const SecondaryDB&) = delete;

  /// Per-call write controls (the subset of WriteOptions the serving layer
  /// needs). Defaults preserve the classic blocking behavior.
  struct WriteControl {
    /// See WriteOptions::no_stall: return Status::Busy instead of parking
    /// on the PRIMARY table's stall ladder. A Busy return means nothing was
    /// applied to the primary; in base.sync_writes mode the index postings
    /// written first may remain as stale entries — exactly the state a
    /// crash between the two writes leaves, which query-time validation
    /// already filters. Index-table writes themselves keep the blocking
    /// path (postings are small; their ladders clear quickly).
    bool no_stall = false;
  };

  /// PUT(k, v): v must be a JSON object; indexed attributes are extracted
  /// from its top-level fields. Overwrites any existing entry (stale index
  /// entries are filtered at query time, per the paper).
  Status Put(const Slice& key, const Slice& json_value,
             const WriteControl& ctl);
  Status Put(const Slice& key, const Slice& json_value) {
    return Put(key, json_value, WriteControl());
  }

  /// GET(k).
  Status Get(const Slice& key, std::string* value);

  /// DEL(k).
  Status Delete(const Slice& key, const WriteControl& ctl);
  Status Delete(const Slice& key) { return Delete(key, WriteControl()); }

  /// LOOKUP(A, a, K): K most recent records with val(A) == a, newest
  /// first. K == 0 means no limit.
  Status Lookup(const std::string& attribute, const Slice& value, size_t k,
                std::vector<QueryResult>* results);

  /// RANGELOOKUP(A, a, b, K): K most recent records with a <= val(A) <= b.
  Status RangeLookup(const std::string& attribute, const Slice& lo,
                     const Slice& hi, size_t k,
                     std::vector<QueryResult>* results);

  // ---- Snapshot-consistent primary iteration ----
  //
  // Thin forwards to the primary table: a snapshot pins a sequence number
  // (writes/flushes/compactions after it stay invisible), and iterators
  // are bidirectional merged views over memtable + immutables + every
  // level. Release every snapshot before closing the store. The
  // stand-alone index tables are NOT covered: LOOKUP/RANGELOOKUP read
  // "now" by design (the paper's queries have no as-of semantics).
  const Snapshot* GetSnapshot();
  void ReleaseSnapshot(const Snapshot* snapshot);
  Iterator* NewIterator(const ReadOptions& options);

  /// Bulk load: stream sorted documents (strictly increasing primary keys,
  /// JSON values) into the primary table via DB::IngestExternalFiles — no
  /// memtable, no WAL — and bring every index along. Embedded/NoIndex need
  /// nothing extra (embedded filters and zone maps are built into the
  /// ingested SSTables); stand-alone variants receive the batch through
  /// SecondaryIndex::BulkLoad, which builds index SSTables directly when
  /// sound and replays OnPut otherwise. Queries afterwards are
  /// byte-identical to having Put every document. Same requirements as
  /// DB::IngestExternalFiles (no concurrent writers).
  Status IngestWithIndexes(const IngestFeed& feed, IngestStats* stats);

  /// Flush + fully compact the primary table and every index table (used
  /// between the build and query phases of Static workloads).
  Status CompactAll();

  /// Drive any pending compactions (no forced flush).
  Status MaybeCompact();

  // ---- Corruption survival ----

  /// Best-effort salvage of a store that no longer opens: runs RepairDB on
  /// the primary table (with the same effective options Open would use, so
  /// rewritten tables regenerate identical filters / zone maps) and drops
  /// the stand-alone index tables — they are derived data. Reopen the store
  /// afterwards and call RebuildIndex() to regenerate them. The store must
  /// not be open while this runs.
  static Status Repair(const SecondaryDBOptions& options,
                       const std::string& path);

  /// Cross-check every index against the primary table: every newest
  /// visible primary record must be reachable through each index that
  /// covers one of its attributes. (Stale postings are normal — query-time
  /// validation filters them — but a MISSING posting silently hides a live
  /// record from query results.) Returns Corruption naming the first
  /// unreachable record. Embedded/NoIndex read the primary data directly
  /// and are trivially consistent.
  Status VerifyIndexConsistency();

  /// Regenerate the stand-alone index tables from a full primary scan: the
  /// old index tables are destroyed, fresh ones opened, and one posting
  /// written per (newest visible record, covered attribute) with the
  /// record's real sequence number — so validation and GetLite behave
  /// exactly as if the postings came from the write path. Counted as
  /// index.rebuild.entries. Embedded/NoIndex: no separate table, no-op.
  Status RebuildIndex();

  /// Clear a transient sticky background error on the primary table and on
  /// every stand-alone index table (see DB::Resume).
  Status Resume();

  /// Store-wide stall state: the primary table's ladder position, with
  /// bg_error widened to cover the stand-alone index tables — a store is
  /// only healthy when every table is, and index writes keep the blocking
  /// path, so a sick index table fails Put/Delete just as loudly as a sick
  /// primary.
  DBImpl::WriteStallState GetWriteStallState();

  // ---- Introspection ----
  DBImpl* primary() { return primary_.get(); }
  SecondaryIndex* index(const std::string& attribute);
  IndexType index_type() const { return options_.index_type; }

  Statistics* primary_statistics() {
    // A caller-supplied Statistics (options.base.statistics) wins, so
    // counters recorded before Open — e.g. Repair's salvage/drop tickers —
    // show up in the reopened store's "leveldbpp.stats".
    return options_.base.statistics != nullptr ? options_.base.statistics
                                               : primary_stats_.get();
  }
  uint64_t PrimarySizeBytes() { return primary_->TotalSizeBytes(); }
  /// Sum of all index tables' sizes (0 for Embedded/NoIndex).
  uint64_t IndexSizeBytes();
  uint64_t TotalSizeBytes() { return PrimarySizeBytes() + IndexSizeBytes(); }

  /// Sum of a ticker over the primary and all index tables.
  uint64_t TotalTicker(Ticker t);

 private:
  SecondaryDB(const SecondaryDBOptions& options);

  bool standalone() const {
    return options_.index_type == IndexType::kLazy ||
           options_.index_type == IndexType::kEager ||
           options_.index_type == IndexType::kComposite;
  }

  /// Open (creating if missing) the index object for one attribute; the
  /// per-type switch shared by Open and RebuildIndex.
  Status OpenIndex(const std::string& attr,
                   std::unique_ptr<SecondaryIndex>* index);

  SecondaryDBOptions options_;
  std::string path_;
  Options index_base_;  // Effective base options the index tables open with
  std::unique_ptr<Statistics> primary_stats_;
  std::unique_ptr<const FilterPolicy> primary_filter_;
  std::unique_ptr<const FilterPolicy> secondary_filter_;
  std::unique_ptr<DBImpl> primary_;
  // Attribute -> index, in declaration order.
  std::vector<std::unique_ptr<SecondaryIndex>> indexes_;
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_CORE_SECONDARY_DB_H_
