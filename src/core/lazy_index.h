// LazyIndex (paper Section 4.1.2): stand-alone index table with append-only
// posting updates (Cassandra style). A PUT writes a one-entry fragment and
// nothing else; fragments for the same secondary key scatter across levels
// and are merged at query time. There is at most one per L0 file and level
// (the PostingListMerger runs at flush and compaction), and a memtable's
// versions of a key read as one fragment.
//
// LOOKUP reads the fragments level by level, newest first, and can stop as
// soon as the top-K heap fills — the property that makes Lazy the best
// stand-alone index for small top-K in the paper. DELETEs append a deletion
// marker that compaction resolves (Figure 5).

#ifndef LEVELDBPP_CORE_LAZY_INDEX_H_
#define LEVELDBPP_CORE_LAZY_INDEX_H_

#include "core/standalone_index.h"

namespace leveldbpp {

class LazyIndex : public StandAloneIndex {
 public:
  static Status Open(std::string attribute, DBImpl* primary,
                     const Options& base, const std::string& path,
                     std::unique_ptr<SecondaryIndex>* out);

  IndexType type() const override { return IndexType::kLazy; }

  Status OnPut(const Slice& primary_key, const Slice& attr_value,
               SequenceNumber seq) override;
  Status OnDelete(const Slice& primary_key, const Slice& attr_value,
                  SequenceNumber seq) override;
  /// Into an EMPTY index table, builds one complete fragment per attribute
  /// value and splices them in as SSTables. Non-empty tables fall back to
  /// per-op fragments: an ingested file can land BELOW older fragments,
  /// breaking the levels-are-older invariant Lookup's early stop needs.
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

#endif  // LEVELDBPP_CORE_LAZY_INDEX_H_
