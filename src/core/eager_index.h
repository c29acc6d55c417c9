// EagerIndex (paper Section 4.1.1): stand-alone index table with in-place
// (read-modify-write) posting-list updates, as MongoDB/CouchDB/Riak do.
//
// Every primary PUT costs a read + a write on the index table, and each
// rewrite re-copies the whole list — the write amplification explosion
// (WAMF ≈ PL_S · 2·(N+1)·(L-1)) that makes Eager "unusable" for large
// non-time-correlated indexes in the paper's Figure 9c.
//
// The payoff is reads: LOOKUP needs exactly ONE index-table read, because
// the newest list is always complete (all lower-level copies obsolete).

#ifndef LEVELDBPP_CORE_EAGER_INDEX_H_
#define LEVELDBPP_CORE_EAGER_INDEX_H_

#include "core/standalone_index.h"

namespace leveldbpp {

class EagerIndex : public StandAloneIndex {
 public:
  /// Factory: opens the index table at `path`.
  static Status Open(std::string attribute, DBImpl* primary,
                     const Options& base, const std::string& path,
                     std::unique_ptr<SecondaryIndex>* out);

  IndexType type() const override { return IndexType::kEager; }

  Status OnPut(const Slice& primary_key, const Slice& attr_value,
               SequenceNumber seq) override;
  Status OnDelete(const Slice& primary_key, const Slice& attr_value,
                  SequenceNumber seq) override;
  /// Into an EMPTY index table, builds the complete per-attribute posting
  /// lists in memory and splices them in as SSTables (no WAL, no RMW). A
  /// non-empty table falls back to the OnPut replay — an ingested list
  /// would shadow existing postings wholesale.
  Status BulkLoad(const std::vector<IndexOp>& entries) override;
  Status Lookup(const Slice& value, size_t k,
                std::vector<QueryResult>* results) override;
  Status RangeLookup(const Slice& lo, const Slice& hi, size_t k,
                     std::vector<QueryResult>* results) override;
  Status EnumeratePostings(const Slice& value,
                           std::vector<PostingCandidate>* out) override;

 private:
  using StandAloneIndex::StandAloneIndex;
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_CORE_EAGER_INDEX_H_
