// CompositeIndex (paper Section 4.2): stand-alone index table whose keys
// are `secondary-key + 0x00 + primary-key` composites with (almost) empty
// values (AsterixDB / Spanner style). LOOKUP is a prefix range scan.
//
// Because LevelDB compaction rotates round-robin through a level's key
// space, composite entries for one secondary key are NOT time-ordered
// across levels — so LOOKUP must traverse all levels before top-K can
// terminate (unlike Lazy). Writes and compactions are the cheapest of the
// stand-alone variants: plain small KV entries, no JSON list parsing.

#ifndef LEVELDBPP_CORE_COMPOSITE_INDEX_H_
#define LEVELDBPP_CORE_COMPOSITE_INDEX_H_

#include "core/standalone_index.h"

namespace leveldbpp {

class CompositeIndex : public StandAloneIndex {
 public:
  static Status Open(std::string attribute, DBImpl* primary,
                     const Options& base, const std::string& path,
                     std::unique_ptr<SecondaryIndex>* out);

  IndexType type() const override { return IndexType::kComposite; }

  Status OnPut(const Slice& primary_key, const Slice& attr_value,
               SequenceNumber seq) override;
  Status OnDelete(const Slice& primary_key, const Slice& attr_value,
                  SequenceNumber seq) override;
  /// Sorts the batch's composite keys and splices them in as SSTables.
  /// Safe on a NON-empty table too: per composite key, newest sequence
  /// wins — exactly Put semantics — and the feed's unique primary keys
  /// guarantee unique composite keys within the batch.
  Status BulkLoad(const std::vector<IndexOp>& entries) override;
  Status Lookup(const Slice& value, size_t k,
                std::vector<QueryResult>* results) override;
  Status RangeLookup(const Slice& lo, const Slice& hi, size_t k,
                     std::vector<QueryResult>* results) override;
  Status EnumeratePostings(const Slice& value,
                           std::vector<PostingCandidate>* out) override;

  /// Composite key codec: attr value and primary key joined by 0x00.
  /// REQUIRES: attr values contain no NUL byte (the workload's attribute
  /// encodings guarantee this; documents with NULs are rejected upstream).
  static std::string MakeCompositeKey(const Slice& attr_value,
                                      const Slice& primary_key);
  static bool SplitCompositeKey(const Slice& composite, Slice* attr_value,
                                Slice* primary_key);

 private:
  using StandAloneIndex::StandAloneIndex;

  /// Phase-1 posting scan shared by RangeLookup and the enumeration hooks:
  /// walk every live composite key with lo <= attr value <= hi through the
  /// index table's merged iterator and emit (primary key, stored seq).
  Status ScanPostings(
      const Slice& lo, const Slice& hi,
      const std::function<void(const Slice& primary_key, uint64_t seq)>& fn);
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_CORE_COMPOSITE_INDEX_H_
