// EmbeddedIndex (paper Section 3): no separate index structure. Every
// primary-table SSTable carries, per data block, a bloom filter and a zone
// map for each indexed attribute (built for free when the immutable SSTable
// is created); a file-level zone map lives in the MANIFEST metadata; and
// unflushed records are covered by the memtable's in-memory attribute tree.
//
// LOOKUP scans level by level: in-memory filters decide which blocks could
// contain matches, only those blocks are read, and each match is validity-
// checked with GetLite (metadata-only supersession check). Because records
// within a level are ordered by primary key — not time — every candidate
// block of a level must be read before top-K can terminate (Algorithm 5).
// With K > 0 the level's records are then admitted newest-first (in
// batches of at most 128 decoded blocks, so a query's memory stays bounded),
// and only those that can still reach the heap are extracted and
// GetLite-checked.
//
// RANGELOOKUP uses zone maps alone (blooms cannot answer ranges); on
// non-time-correlated attributes this degrades toward a full scan, exactly
// the paper's Table 3 worst case.

#ifndef LEVELDBPP_CORE_EMBEDDED_INDEX_H_
#define LEVELDBPP_CORE_EMBEDDED_INDEX_H_

#include "core/secondary_index.h"

namespace leveldbpp {

class EmbeddedIndex : public SecondaryIndex {
 public:
  EmbeddedIndex(std::string attribute, DBImpl* primary)
      : SecondaryIndex(std::move(attribute), primary) {}

  IndexType type() const override { return IndexType::kEmbedded; }

  // Maintenance is free: the primary table's builder embeds the filters.
  Status OnPut(const Slice&, const Slice&, SequenceNumber) override {
    return Status::OK();
  }
  Status OnDelete(const Slice&, const Slice&, SequenceNumber) override {
    return Status::OK();
  }

  Status Lookup(const Slice& value, size_t k,
                std::vector<QueryResult>* results) override {
    return Scan(value, value, k, results);
  }

  Status RangeLookup(const Slice& lo, const Slice& hi, size_t k,
                     std::vector<QueryResult>* results) override {
    return Scan(lo, hi, k, results);
  }

 private:
  Status Scan(const Slice& lo, const Slice& hi, size_t k,
              std::vector<QueryResult>* results);
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_CORE_EMBEDDED_INDEX_H_
