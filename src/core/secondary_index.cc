#include "core/secondary_index.h"

namespace leveldbpp {

const char* IndexTypeName(IndexType type) {
  switch (type) {
    case IndexType::kNoIndex: return "NoIndex";
    case IndexType::kEmbedded: return "Embedded";
    case IndexType::kLazy: return "Lazy";
    case IndexType::kEager: return "Eager";
    case IndexType::kComposite: return "Composite";
  }
  return "Unknown";
}

Status SecondaryIndex::BulkLoad(const std::vector<IndexOp>& entries) {
  for (const IndexOp& op : entries) {
    Status s = OnPut(Slice(op.primary_key), Slice(op.attr_value), op.seq);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace leveldbpp
