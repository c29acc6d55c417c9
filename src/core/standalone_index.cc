#include "core/standalone_index.h"

#include <algorithm>

namespace leveldbpp {

StandAloneIndex::StandAloneIndex(std::string attribute, DBImpl* primary)
    : SecondaryIndex(std::move(attribute), primary),
      stats_(new Statistics),
      filter_policy_(NewBloomFilterPolicy(10)) {}

StandAloneIndex::~StandAloneIndex() = default;

Status StandAloneIndex::OpenIndexTable(const Options& base,
                                       const std::string& path,
                                       const ValueMerger* merger) {
  Options options = base;
  options.create_if_missing = true;
  // Index tables are much smaller than the data table; scale their LSM
  // geometry down so they still develop several levels (the paper's index
  // tables have L=4 at 100GB scale — the level count is what drives the
  // Lazy/Composite read and compaction trade-offs).
  options.write_buffer_size = std::max<size_t>(base.write_buffer_size / 8,
                                               64 << 10);
  options.max_file_size = std::max<size_t>(base.max_file_size / 8, 16 << 10);
  options.max_bytes_for_level_base =
      std::max<uint64_t>(base.max_bytes_for_level_base / 8, 256 << 10);
  // Index tables carry no embedded secondary meta of their own.
  options.secondary_attributes.clear();
  options.attribute_extractor = nullptr;
  options.value_merger = merger;
  options.statistics = stats_.get();
  // Bloom filters on the index table's own (secondary) keys speed up the
  // per-level posting reads (the paper's footnote assumes them).
  options.filter_policy = filter_policy_.get();
  DBImpl* db = nullptr;
  Status s = DBImpl::Open(options, path, &db);
  if (s.ok()) {
    index_db_.reset(db);
  }
  return s;
}

Status StandAloneIndex::CompactAll() { return index_db_->CompactAll(); }

uint64_t StandAloneIndex::IndexSizeBytes() {
  return index_db_->TotalSizeBytes();
}

}  // namespace leveldbpp
