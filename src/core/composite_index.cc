#include "core/composite_index.h"

#include <memory>

#include "core/candidate_sink.h"
#include "util/coding.h"
#include "util/perf_context.h"

namespace leveldbpp {

Status CompositeIndex::Open(std::string attribute, DBImpl* primary,
                            const Options& base, const std::string& path,
                            std::unique_ptr<SecondaryIndex>* out) {
  std::unique_ptr<CompositeIndex> index(
      new CompositeIndex(std::move(attribute), primary));
  Status s = index->OpenIndexTable(base, path, /*merger=*/nullptr);
  if (s.ok()) {
    *out = std::move(index);
  }
  return s;
}

std::string CompositeIndex::MakeCompositeKey(const Slice& attr_value,
                                             const Slice& primary_key) {
  std::string key;
  key.reserve(attr_value.size() + 1 + primary_key.size());
  key.append(attr_value.data(), attr_value.size());
  key.push_back('\0');
  key.append(primary_key.data(), primary_key.size());
  return key;
}

bool CompositeIndex::SplitCompositeKey(const Slice& composite,
                                       Slice* attr_value,
                                       Slice* primary_key) {
  const char* sep = static_cast<const char*>(
      memchr(composite.data(), '\0', composite.size()));
  if (sep == nullptr) return false;
  *attr_value = Slice(composite.data(), sep - composite.data());
  *primary_key =
      Slice(sep + 1, composite.size() - (sep - composite.data()) - 1);
  return true;
}

Status CompositeIndex::OnPut(const Slice& primary_key,
                             const Slice& attr_value, SequenceNumber seq) {
  // The value stores the primary record's sequence number so top-K ordering
  // is available without touching the data table.
  std::string value;
  PutVarint64(&value, seq);
  return index_db_->Put(WriteOptions(),
                        Slice(MakeCompositeKey(attr_value, primary_key)),
                        Slice(value));
}

Status CompositeIndex::OnDelete(const Slice& primary_key,
                                const Slice& attr_value,
                                SequenceNumber /*seq*/) {
  // The paper inserts the composite key with a deletion marker that
  // compaction uses to detect and remove the entry — which is exactly LSM
  // tombstone semantics.
  return index_db_->Delete(WriteOptions(),
                           Slice(MakeCompositeKey(attr_value, primary_key)));
}

Status CompositeIndex::BulkLoad(const std::vector<IndexOp>& entries) {
  // Composite entries are plain KV pairs, so ingestion is sound even into
  // a non-empty table: an ingested entry carries a fresh (newer) sequence
  // and wins over any existing version of the same composite key, which is
  // exactly what a Put would do. Index recency (stored in the VALUE) is
  // what queries sort by, so file placement does not matter.
  std::vector<std::pair<std::string, std::string>> rows;
  rows.reserve(entries.size());
  for (const IndexOp& op : entries) {
    std::string value;
    PutVarint64(&value, op.seq);
    rows.emplace_back(MakeCompositeKey(Slice(op.attr_value),
                                       Slice(op.primary_key)),
                      std::move(value));
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t i = 0;
  IngestFeed feed = [&](std::string* key, std::string* value) {
    if (i >= rows.size()) return false;
    *key = std::move(rows[i].first);
    *value = std::move(rows[i].second);
    i++;
    return true;
  };
  return index_db_->IngestExternalFiles(feed, nullptr);
}

Status CompositeIndex::Lookup(const Slice& value, size_t k,
                              std::vector<QueryResult>* results) {
  return RangeLookup(value, value, k, results);
}

Status CompositeIndex::RangeLookup(const Slice& lo, const Slice& hi,
                                   size_t k,
                                   std::vector<QueryResult>* results) {
  results->clear();
  // Phase 1 — prefix range scan (Algorithms 4/7): the merged iterator
  // surfaces every live composite key exactly once, across ALL levels.
  // There is no early-termination opportunity because entries arrive
  // ordered by key, not time (Section 4.2), so ALL candidates are gathered
  // (cheap: index blocks only, no data-table access).
  std::vector<PostingCandidate> candidates;
  Status s = ScanPostings(
      lo, hi, [&](const Slice& primary_key, uint64_t seq) {
        candidates.push_back({primary_key.ToString(), seq});
      });
  if (!s.ok()) return s;
  // One composite row is the analogue of one posting entry. Counted after
  // the (always sequential) phase-1 scan, so the value is identical at
  // every read_parallelism setting.
  PerfCounterAdd(&PerfContext::posting_entries_scanned, candidates.size());

  // Phase 2 — validate newest-first: the stored sequence numbers order the
  // candidates by recency, so top-K completes after ~K data-table GETs
  // (plus skips over stale entries), instead of one GET per candidate.
  CandidateSink sink(primary_, k, attribute_, lo, hi);
  s = sink.OfferNewestFirst(&candidates);
  if (!s.ok()) return s;
  return sink.Finish(results);
}

Status CompositeIndex::ScanPostings(
    const Slice& lo, const Slice& hi,
    const std::function<void(const Slice& primary_key, uint64_t seq)>& fn) {
  std::unique_ptr<Iterator> it(index_db_->NewIterator(ReadOptions()));
  std::string seek_target = lo.ToString();  // attr prefix lower bound
  for (it->Seek(Slice(seek_target)); it->Valid(); it->Next()) {
    Slice attr_value, primary_key;
    if (!SplitCompositeKey(it->key(), &attr_value, &primary_key)) continue;
    if (attr_value.compare(hi) > 0) break;
    if (attr_value.compare(lo) < 0) continue;
    Slice v = it->value();
    uint64_t seq = 0;
    GetVarint64(&v, &seq);
    fn(primary_key, seq);
  }
  return it->status();
}

Status CompositeIndex::EnumeratePostings(const Slice& value,
                                         std::vector<PostingCandidate>* out) {
  out->clear();
  // Composite keys are unique per (attr value, primary key) and the merged
  // iterator already resolves shadowing, so the prefix scan IS the live
  // posting set — no dedup pass needed.
  Status s = ScanPostings(value, value,
                          [&](const Slice& primary_key, uint64_t seq) {
                            out->push_back({primary_key.ToString(), seq});
                          });
  if (!s.ok()) return s;
  PerfCounterAdd(&PerfContext::posting_entries_scanned, out->size());
  return Status::OK();
}

}  // namespace leveldbpp
