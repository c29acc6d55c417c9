#include "core/secondary_db.h"

#include "core/composite_index.h"
#include "core/document.h"
#include "core/eager_index.h"
#include "core/embedded_index.h"
#include "core/lazy_index.h"
#include "core/noindex_index.h"
#include "env/env.h"
#include "util/perf_context.h"

namespace leveldbpp {

namespace {

// Bloom bits/key for primary-key filters, in every variant (LevelDB's
// default). Open and Repair both build the primary's filter from it, so a
// repair rewrite regenerates the same blooms.
constexpr int kPrimaryBloomBitsPerKey = 10;

HistogramType LookupHistogram(IndexType type) {
  switch (type) {
    case IndexType::kNoIndex: return kHistLookupNoIndexMicros;
    case IndexType::kEmbedded: return kHistLookupEmbeddedMicros;
    case IndexType::kLazy: return kHistLookupLazyMicros;
    case IndexType::kEager: return kHistLookupEagerMicros;
    case IndexType::kComposite: return kHistLookupCompositeMicros;
  }
  return kHistLookupNoIndexMicros;
}

}  // namespace

SecondaryDB::SecondaryDB(const SecondaryDBOptions& options)
    : options_(options),
      primary_stats_(new Statistics),
      primary_filter_(NewBloomFilterPolicy(kPrimaryBloomBitsPerKey)),
      secondary_filter_(
          NewBloomFilterPolicy(options.embedded_bloom_bits_per_key)) {}

Status SecondaryDB::Open(const SecondaryDBOptions& options,
                         const std::string& path,
                         std::unique_ptr<SecondaryDB>* dbptr) {
  dbptr->reset();
  std::unique_ptr<SecondaryDB> db(new SecondaryDB(options));

  Env* env = options.base.env != nullptr ? options.base.env : Env::Posix();
  Status s = env->CreateDir(path);
  if (!s.ok()) return s;

  // Crash-consistency mode (base.sync_writes) reaches the index tables
  // through index_base_, so their internal writes sync too — that is the
  // whole point of routing the knob through Options instead of per-call
  // WriteOptions.
  Options base = options.base;
  base.env = env;
  db->path_ = path;
  db->index_base_ = base;
  // Only the PRIMARY table's sequences are globally meaningful (postings
  // store primary seqs; cross-shard merges order by them). The stand-alone
  // index tables' internal writes number themselves densely as usual.
  db->index_base_.shared_sequence = nullptr;

  // Primary table.
  Options primary_options = base;
  primary_options.create_if_missing = true;
  primary_options.statistics = db->primary_statistics();
  primary_options.filter_policy = db->primary_filter_.get();
  if (options.index_type == IndexType::kEmbedded) {
    primary_options.secondary_attributes = options.indexed_attributes;
    primary_options.attribute_extractor = JsonAttributeExtractor::Instance();
    primary_options.secondary_filter_policy = db->secondary_filter_.get();
  }
  DBImpl* primary = nullptr;
  s = DBImpl::Open(primary_options, path + "/primary", &primary);
  if (!s.ok()) return s;
  db->primary_.reset(primary);

  // Per-attribute index objects.
  for (const std::string& attr : options.indexed_attributes) {
    std::unique_ptr<SecondaryIndex> index;
    s = db->OpenIndex(attr, &index);
    if (!s.ok()) return s;
    db->indexes_.push_back(std::move(index));
  }

  *dbptr = std::move(db);
  return Status::OK();
}

Status SecondaryDB::OpenIndex(const std::string& attr,
                              std::unique_ptr<SecondaryIndex>* index) {
  index->reset();
  Status s;
  const std::string index_path = path_ + "/index_" + attr;
  switch (options_.index_type) {
    case IndexType::kNoIndex:
      index->reset(new NoIndex(attr, primary_.get()));
      break;
    case IndexType::kEmbedded:
      index->reset(new EmbeddedIndex(attr, primary_.get()));
      break;
    case IndexType::kLazy:
      s = LazyIndex::Open(attr, primary_.get(), index_base_, index_path,
                          index);
      break;
    case IndexType::kEager:
      s = EagerIndex::Open(attr, primary_.get(), index_base_, index_path,
                           index);
      break;
    case IndexType::kComposite:
      s = CompositeIndex::Open(attr, primary_.get(), index_base_, index_path,
                               index);
      break;
  }
  return s;
}

SecondaryIndex* SecondaryDB::index(const std::string& attribute) {
  for (auto& index : indexes_) {
    if (index->attribute() == attribute) return index.get();
  }
  return nullptr;
}

const Snapshot* SecondaryDB::GetSnapshot() { return primary_->GetSnapshot(); }

void SecondaryDB::ReleaseSnapshot(const Snapshot* snapshot) {
  primary_->ReleaseSnapshot(snapshot);
}

Iterator* SecondaryDB::NewIterator(const ReadOptions& options) {
  return primary_->NewIterator(options);
}

Status SecondaryDB::Put(const Slice& key, const Slice& json_value,
                        const WriteControl& ctl) {
  // Extract indexed attributes up front (stand-alone variants need them;
  // the extraction also validates the document).
  std::vector<std::pair<SecondaryIndex*, std::string>> attr_values;
  if (standalone()) {
    std::string attr_value;
    for (auto& index : indexes_) {
      if (JsonAttributeExtractor::Instance()->Extract(
              json_value, index->attribute(), &attr_value)) {
        attr_values.emplace_back(index.get(), attr_value);
      }
    }
  }

  if (options_.base.sync_writes) {
    // Crash-consistency ordering: durably write the index entries FIRST,
    // tagged with the sequence number the primary write will carry (claimed
    // up front — under a shard-shared counter the claim reserves it; without
    // one the prediction holds under the documented single-writer
    // requirement). Any crash prefix then leaves at worst a stale posting —
    // the primary either lacks the key or holds an older attribute value,
    // and query-time validation filters both. The reverse order could lose
    // an acknowledged-by-primary record from query results forever.
    const SequenceNumber seq = primary_->ClaimNextSequence();
    for (auto& [index, attr_value] : attr_values) {
      Status s = index->OnPut(key, Slice(attr_value), seq);
      if (!s.ok()) return s;
    }
    WriteOptions wo;
    wo.assigned_seq = seq;
    wo.no_stall = ctl.no_stall;
    return primary_->Put(wo, key, json_value);
  }

  WriteOptions wo;
  wo.no_stall = ctl.no_stall;
  Status s = primary_->Put(wo, key, json_value);
  if (!s.ok()) return s;
  const SequenceNumber seq = primary_->LastSequence();

  for (auto& [index, attr_value] : attr_values) {
    s = index->OnPut(key, Slice(attr_value), seq);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status SecondaryDB::Get(const Slice& key, std::string* value) {
  return primary_->Get(ReadOptions(), key, value);
}

Status SecondaryDB::Delete(const Slice& key, const WriteControl& ctl) {
  // Stand-alone indexes must learn the victim's attribute values to target
  // the right index entries, which costs a primary-table read.
  std::vector<std::pair<SecondaryIndex*, std::string>> attr_values;
  if (standalone()) {
    std::string old_value;
    if (primary_->Get(ReadOptions(), key, &old_value).ok()) {
      std::string attr_value;
      for (auto& index : indexes_) {
        if (JsonAttributeExtractor::Instance()->Extract(
                Slice(old_value), index->attribute(), &attr_value)) {
          attr_values.emplace_back(index.get(), attr_value);
        }
      }
    }
  }

  // Delete stays primary-first even in base.sync_writes mode — the
  // OPPOSITE of Put's crash ordering, for the same reason. A Lazy deletion
  // marker shadows every older posting for its key, so an index-first crash
  // could leave a phantom marker hiding a record the primary still holds: a
  // live record silently missing from query results, unfilterable.
  // Primary-first instead leaves at worst a primary tombstone with
  // lingering index postings, which validation filters (the primary Get
  // misses).
  WriteOptions wo;
  wo.no_stall = ctl.no_stall;
  Status s = primary_->Delete(wo, key);
  if (!s.ok()) return s;
  const SequenceNumber seq = primary_->LastSequence();

  for (auto& [index, attr_value] : attr_values) {
    s = index->OnDelete(key, Slice(attr_value), seq);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status SecondaryDB::Lookup(const std::string& attribute, const Slice& value,
                           size_t k, std::vector<QueryResult>* results) {
  SecondaryIndex* idx = index(attribute);
  if (idx == nullptr) {
    return Status::InvalidArgument("attribute is not indexed: ", attribute);
  }
  // Both lookup forms land in the variant's histogram: the paper's LOOKUP /
  // RANGELOOKUP latency figures are per-variant distributions.
  Env* env = index_base_.env != nullptr ? index_base_.env : Env::Posix();
  const uint64_t start = env->NowMicros();
  ScopedPerfTimer timer(&PerfContext::lookup_micros);
  Status s = idx->Lookup(value, k, results);
  primary_statistics()->RecordHistogram(LookupHistogram(options_.index_type),
                                        env->NowMicros() - start);
  return s;
}

Status SecondaryDB::RangeLookup(const std::string& attribute, const Slice& lo,
                                const Slice& hi, size_t k,
                                std::vector<QueryResult>* results) {
  SecondaryIndex* idx = index(attribute);
  if (idx == nullptr) {
    return Status::InvalidArgument("attribute is not indexed: ", attribute);
  }
  Env* env = index_base_.env != nullptr ? index_base_.env : Env::Posix();
  const uint64_t start = env->NowMicros();
  ScopedPerfTimer timer(&PerfContext::lookup_micros);
  Status s = idx->RangeLookup(lo, hi, k, results);
  primary_statistics()->RecordHistogram(LookupHistogram(options_.index_type),
                                        env->NowMicros() - start);
  return s;
}

Status SecondaryDB::CompactAll() {
  Status s = primary_->CompactAll();
  for (auto& index : indexes_) {
    if (s.ok()) s = index->CompactAll();
  }
  return s;
}

Status SecondaryDB::MaybeCompact() {
  Status s = primary_->MaybeCompact();
  return s;
}

uint64_t SecondaryDB::IndexSizeBytes() {
  uint64_t total = 0;
  for (auto& index : indexes_) {
    total += index->IndexSizeBytes();
  }
  return total;
}

Status SecondaryDB::Repair(const SecondaryDBOptions& options,
                           const std::string& path) {
  // Reconstruct the primary table's effective options exactly as Open
  // would, so the repair rewrite regenerates the same blooms / zone maps.
  std::unique_ptr<const FilterPolicy> primary_filter(
      NewBloomFilterPolicy(kPrimaryBloomBitsPerKey));
  std::unique_ptr<const FilterPolicy> secondary_filter(
      NewBloomFilterPolicy(options.embedded_bloom_bits_per_key));
  Options primary_options = options.base;
  if (primary_options.env == nullptr) primary_options.env = Env::Posix();
  primary_options.filter_policy = primary_filter.get();
  if (options.index_type == IndexType::kEmbedded) {
    primary_options.secondary_attributes = options.indexed_attributes;
    primary_options.attribute_extractor = JsonAttributeExtractor::Instance();
    primary_options.secondary_filter_policy = secondary_filter.get();
  }
  Status s = RepairDB(path + "/primary", primary_options);
  if (!s.ok()) return s;

  // The stand-alone index tables are derived data and may themselves be
  // damaged (a corrupt index MANIFEST would fail the next Open outright).
  // Drop them; Open recreates empty tables and RebuildIndex() refills them
  // from the repaired primary.
  const bool has_standalone = options.index_type == IndexType::kLazy ||
                              options.index_type == IndexType::kEager ||
                              options.index_type == IndexType::kComposite;
  if (has_standalone) {
    for (const std::string& attr : options.indexed_attributes) {
      Status d = DestroyDB(path + "/index_" + attr, primary_options);
      if (!d.ok() && s.ok()) s = d;
    }
  }
  return s;
}

Status SecondaryDB::VerifyIndexConsistency() {
  if (!standalone()) return Status::OK();
  const JsonAttributeExtractor* extractor = JsonAttributeExtractor::Instance();
  std::string attr_value;
  std::vector<QueryResult> results;
  Status bad;
  Status s = primary_->ScanAll(
      ReadOptions(),
      [&](const Slice& key, SequenceNumber, const Slice& value) {
        for (auto& index : indexes_) {
          if (!extractor->Extract(value, index->attribute(), &attr_value)) {
            continue;
          }
          Status ls = index->Lookup(Slice(attr_value), 0, &results);
          if (!ls.ok()) {
            bad = ls;
            return false;
          }
          bool reachable = false;
          for (const QueryResult& r : results) {
            if (Slice(r.primary_key) == key) {
              reachable = true;
              break;
            }
          }
          if (!reachable) {
            bad = Status::Corruption(
                "index '" + index->attribute() + "' has no posting for key ",
                key);
            return false;
          }
        }
        return true;
      });
  return s.ok() ? bad : s;
}

Status SecondaryDB::RebuildIndex() {
  if (!standalone()) return Status::OK();

  // Tear down: close the index tables (the objects own their DB handles),
  // then wipe them from disk.
  indexes_.clear();
  Status s;
  for (const std::string& attr : options_.indexed_attributes) {
    s = DestroyDB(path_ + "/index_" + attr, index_base_);
    if (!s.ok()) return s;
  }
  for (const std::string& attr : options_.indexed_attributes) {
    std::unique_ptr<SecondaryIndex> index;
    s = OpenIndex(attr, &index);
    if (!s.ok()) return s;
    indexes_.push_back(std::move(index));
  }

  // Refill from the primary: one posting per (newest visible record,
  // covered attribute), carrying the record's REAL sequence number so
  // query-time validation and GetLite treat rebuilt postings exactly like
  // write-path ones. Older superseded versions get no postings — the
  // rebuilt index starts with zero stale entries.
  const JsonAttributeExtractor* extractor = JsonAttributeExtractor::Instance();
  Statistics* stats = primary_statistics();
  std::string attr_value;
  Status put_error;
  s = primary_->ScanAll(
      ReadOptions(),
      [&](const Slice& key, SequenceNumber seq, const Slice& value) {
        for (size_t i = 0; i < indexes_.size(); i++) {
          if (!extractor->Extract(value, indexes_[i]->attribute(),
                                  &attr_value)) {
            continue;
          }
          Status ps = indexes_[i]->OnPut(key, Slice(attr_value), seq);
          if (!ps.ok()) {
            put_error = ps;
            return false;
          }
          if (stats != nullptr) stats->Record(kIndexRebuildEntries);
        }
        return true;
      });
  if (s.ok()) s = put_error;
  return s;
}

Status SecondaryDB::IngestWithIndexes(const IngestFeed& feed,
                                      IngestStats* stats) {
  if (!standalone()) {
    // NoIndex scans the data; Embedded's blooms and zone maps are built by
    // the table builder inside the ingest itself. Nothing extra to do.
    return primary_->IngestExternalFiles(feed, stats);
  }

  // Capture each record's extracted attribute values as the primary ingest
  // streams through; sequence numbers follow once the ingest reports its
  // window (record j received first_seq + j).
  struct Captured {
    uint64_t record_index;
    std::string primary_key;
    std::string attr_value;
  };
  std::vector<std::vector<Captured>> captured(indexes_.size());
  uint64_t record_index = 0;
  const JsonAttributeExtractor* extractor = JsonAttributeExtractor::Instance();
  IngestFeed wrapped = [&](std::string* key, std::string* value) {
    if (!feed(key, value)) return false;
    std::string attr_value;
    for (size_t i = 0; i < indexes_.size(); i++) {
      if (extractor->Extract(Slice(*value), indexes_[i]->attribute(),
                             &attr_value)) {
        captured[i].push_back({record_index, *key, attr_value});
      }
    }
    record_index++;
    return true;
  };
  IngestStats local;
  Status s = primary_->IngestExternalFiles(wrapped, &local);
  if (!s.ok()) return s;

  // A BulkLoad failure here leaves the primary loaded but an index behind —
  // missing postings hide records from queries, so surface the error; a
  // RebuildIndex() regenerates the tables from the (intact) primary.
  for (size_t i = 0; i < indexes_.size() && s.ok(); i++) {
    std::vector<IndexOp> ops;
    ops.reserve(captured[i].size());
    for (Captured& c : captured[i]) {
      IndexOp op;
      op.primary_key = std::move(c.primary_key);
      op.attr_value = std::move(c.attr_value);
      op.seq = local.first_seq + c.record_index;
      ops.push_back(std::move(op));
    }
    s = indexes_[i]->BulkLoad(ops);
  }
  if (s.ok() && stats != nullptr) *stats = local;
  return s;
}

Status SecondaryDB::Resume() {
  Status s = primary_->Resume();
  for (auto& index : indexes_) {
    Status is = index->Resume();
    if (s.ok() && !is.ok()) s = is;
  }
  return s;
}

DBImpl::WriteStallState SecondaryDB::GetWriteStallState() {
  DBImpl::WriteStallState st = primary_->GetWriteStallState();
  if (st.bg_error.ok()) {
    for (auto& index : indexes_) {
      Status is = index->BackgroundError();
      if (!is.ok()) {
        st.bg_error = is;
        // A sick index table refuses writes outright; advertise the same
        // patient hint the primary's bg-error rung does.
        if (st.suggested_retry_micros == 0) st.suggested_retry_micros = 100000;
        break;
      }
    }
  }
  return st;
}

uint64_t SecondaryDB::TotalTicker(Ticker t) {
  uint64_t total = primary_statistics()->Get(t);
  for (auto& index : indexes_) {
    Statistics* stats = index->index_statistics();
    if (stats != nullptr) total += stats->Get(t);
  }
  return total;
}

}  // namespace leveldbpp
