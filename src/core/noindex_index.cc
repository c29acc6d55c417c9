#include "core/noindex_index.h"

#include <memory>

#include "core/document.h"
#include "util/perf_context.h"

namespace leveldbpp {

Status NoIndex::Scan(const Slice& lo, const Slice& hi, size_t k,
                     std::vector<QueryResult>* results) {
  results->clear();
  TopKCollector heap(k);
  const JsonAttributeExtractor* extractor = JsonAttributeExtractor::Instance();
  std::string attr_scratch;

  // ScanAll exposes only the newest live version of each key, so no
  // validity checks are needed — but every record in the store is visited
  // and parsed, and there is no early termination (matches arrive in key
  // order, not time order).
  Status s = primary_->ScanAll(
      ReadOptions(),
      [&](const Slice& key, SequenceNumber seq, const Slice& record) {
        PerfCounterAdd(&PerfContext::candidate_records_scanned, 1);
        if (extractor->Extract(record, attribute_, &attr_scratch)) {
          Slice av(attr_scratch);
          if (av.compare(lo) >= 0 && av.compare(hi) <= 0) {
            QueryResult r;
            r.primary_key = key.ToString();
            r.seq = seq;
            r.value = record.ToString();
            heap.Add(std::move(r));
          }
        }
        return true;
      });
  if (!s.ok()) return s;
  *results = heap.TakeSortedNewestFirst();
  return Status::OK();
}

}  // namespace leveldbpp
