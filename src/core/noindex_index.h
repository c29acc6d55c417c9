// NoIndex: the paper's no-index baseline. LOOKUP/RANGELOOKUP are full
// scans of the primary table — every block is read, every record parsed.

#ifndef LEVELDBPP_CORE_NOINDEX_INDEX_H_
#define LEVELDBPP_CORE_NOINDEX_INDEX_H_

#include "core/secondary_index.h"

namespace leveldbpp {

class NoIndex : public SecondaryIndex {
 public:
  NoIndex(std::string attribute, DBImpl* primary)
      : SecondaryIndex(std::move(attribute), primary) {}

  IndexType type() const override { return IndexType::kNoIndex; }

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

#endif  // LEVELDBPP_CORE_NOINDEX_INDEX_H_
