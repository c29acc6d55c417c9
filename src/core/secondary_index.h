// SecondaryIndex: the per-attribute index strategy interface. One instance
// indexes ONE secondary attribute of the primary table (mirroring the
// paper's setup: a UserID index and a CreationTime index), with five
// implementations:
//
//   EmbeddedIndex   — no separate structure (bloom filters + zone maps live
//                     inside the primary SSTables)                Section 3
//   LazyIndex       — stand-alone LSM table of posting lists,
//                     append-only fragments merged at compaction  Section 4.1.2
//   EagerIndex      — stand-alone table, read-modify-write lists  Section 4.1.1
//   CompositeIndex  — stand-alone table of secondary+primary keys Section 4.2
//   NoIndex         — full-scan baseline
//
// Maintenance hooks are invoked by SecondaryDB around primary-table writes;
// query methods implement LOOKUP(A, a, K) and RANGELOOKUP(A, a, b, K) from
// Table 1 (K most recent by insertion sequence; K == 0 means unlimited).

#ifndef LEVELDBPP_CORE_SECONDARY_INDEX_H_
#define LEVELDBPP_CORE_SECONDARY_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "core/topk.h"
#include "db/db_impl.h"
#include "util/status.h"

namespace leveldbpp {

enum class IndexType {
  kNoIndex,
  kEmbedded,
  kLazy,
  kEager,
  kComposite,
};

const char* IndexTypeName(IndexType type);

/// One bulk-load record (BulkLoad).
struct IndexOp {
  std::string primary_key;
  std::string attr_value;
  SequenceNumber seq = 0;
};

/// One live posting enumerated from a stand-alone index: deduplicated per
/// primary key (the newest stored occurrence wins), deletion markers
/// resolved, but NOT yet validated against the primary table. `seq` is the
/// STORED sequence number, which is always >= the sequence the record
/// validates at (a crash-stale posting stores a seq the primary never
/// committed) — the property top-K early termination relies on.
struct PostingCandidate {
  std::string primary_key;
  SequenceNumber seq = 0;
};

class SecondaryIndex {
 public:
  SecondaryIndex(std::string attribute, DBImpl* primary)
      : attribute_(std::move(attribute)), primary_(primary) {}
  virtual ~SecondaryIndex() = default;

  SecondaryIndex(const SecondaryIndex&) = delete;
  SecondaryIndex& operator=(const SecondaryIndex&) = delete;

  const std::string& attribute() const { return attribute_; }

  virtual IndexType type() const = 0;

  /// Called AFTER the primary-table write assigned `seq` to (key, value).
  /// `attr_value` is the extracted secondary key (absent records are not
  /// indexed and this is not called).
  virtual Status OnPut(const Slice& primary_key, const Slice& attr_value,
                       SequenceNumber seq) = 0;

  /// Called after a DEL of `primary_key` whose old record carried
  /// `attr_value`; `seq` is the deletion's sequence number.
  virtual Status OnDelete(const Slice& primary_key, const Slice& attr_value,
                          SequenceNumber seq) = 0;

  /// Load `entries` (all puts, strictly increasing UNIQUE primary keys,
  /// ascending seqs — the shape IngestWithIndexes produces) into the index.
  /// The default replays OnPut; stand-alone variants override to build
  /// their index table via SSTable ingestion when that is sound.
  virtual Status BulkLoad(const std::vector<IndexOp>& entries);

  /// LOOKUP(A, a, K): the K most recent valid records with val(A) == a,
  /// newest first.
  virtual Status Lookup(const Slice& value, size_t k,
                        std::vector<QueryResult>* results) = 0;

  /// RANGELOOKUP(A, a, b, K): the K most recent valid records with
  /// a <= val(A) <= b, newest first.
  virtual Status RangeLookup(const Slice& lo, const Slice& hi, size_t k,
                             std::vector<QueryResult>* results) = 0;

  /// Enumerate every live posting stored under `value` (see
  /// PostingCandidate: deduplicated and deletion-resolved, unvalidated):
  /// the enumeration half of Lookup, without the primary-table validation.
  /// Embedded/NoIndex keep no posting lists and return NotSupported.
  virtual Status EnumeratePostings(const Slice& value,
                                   std::vector<PostingCandidate>* out) {
    (void)value;
    (void)out;
    return Status::NotSupported("index keeps no posting lists");
  }

  /// Index-table housekeeping for "Static" workloads (flush + full
  /// compaction). Embedded/NoIndex have no separate table: no-op.
  virtual Status CompactAll() { return Status::OK(); }

  /// Clear a transient sticky background error on the index's own table
  /// (see DB::Resume). Embedded/NoIndex have no separate table: no-op.
  virtual Status Resume() { return Status::OK(); }

  /// Sticky background error on the index's own table, if any — a shard is
  /// only healthy when every one of its tables is (index writes keep the
  /// blocking path, so a sick index table fails writes just as loudly as a
  /// sick primary). Embedded/NoIndex have no separate table: always OK.
  virtual Status BackgroundError() { return Status::OK(); }

  /// Statistics of the index's own table (nullptr when none exists).
  virtual Statistics* index_statistics() { return nullptr; }

  /// Bytes consumed by the index's own table (0 when none exists).
  virtual uint64_t IndexSizeBytes() { return 0; }

 protected:
  std::string attribute_;
  DBImpl* primary_;
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_CORE_SECONDARY_INDEX_H_
