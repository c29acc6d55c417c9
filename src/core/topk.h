// TopKCollector: the min-heap of Algorithm 1 in the paper. Maintains the K
// most recent (highest sequence number) matches; the heap root is the
// OLDEST retained match, so a candidate older than the root of a full heap
// is rejected without any further work (in particular, before the
// per-candidate validity check, which may cost a disk read).

#ifndef LEVELDBPP_CORE_TOPK_H_
#define LEVELDBPP_CORE_TOPK_H_

#include <algorithm>
#include <string>
#include <vector>

#include "db/dbformat.h"

namespace leveldbpp {

/// One LOOKUP/RANGELOOKUP match.
struct QueryResult {
  std::string primary_key;
  SequenceNumber seq = 0;
  std::string value;  // The full record (JSON document)
};

class TopKCollector {
 public:
  /// k == 0 means "no limit" (collect every match).
  explicit TopKCollector(size_t k) : k_(k) {}

  /// Would a candidate with this sequence number be admitted? Callers use
  /// this to skip expensive validity checks for hopeless candidates.
  bool WouldAdmit(SequenceNumber seq) const {
    if (k_ == 0 || heap_.size() < k_) return true;
    return seq > heap_.front().seq;
  }

  /// True iff K matches have been collected (never true for k == 0).
  bool Full() const { return k_ != 0 && heap_.size() >= k_; }

  size_t Size() const { return heap_.size(); }

  /// Admit a match (Algorithm 1: pop the oldest if the heap is full).
  /// Returns false if the candidate was older than everything retained.
  bool Add(QueryResult result) {
    if (k_ != 0 && heap_.size() >= k_) {
      if (result.seq <= heap_.front().seq) return false;
      std::pop_heap(heap_.begin(), heap_.end(), OlderFirst());
      heap_.pop_back();
    }
    heap_.push_back(std::move(result));
    std::push_heap(heap_.begin(), heap_.end(), OlderFirst());
    return true;
  }

  /// Extract results ordered newest-first, moving each one out (records
  /// included). Destroys the collector's state.
  std::vector<QueryResult> TakeSortedNewestFirst() {
    std::vector<QueryResult> out;
    out.reserve(heap_.size());
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), OlderFirst());
      out.push_back(std::move(heap_.back()));
      heap_.pop_back();
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

 private:
  struct OlderFirst {
    bool operator()(const QueryResult& a, const QueryResult& b) const {
      return a.seq > b.seq;  // Min-heap on seq
    }
  };

  size_t k_;
  std::vector<QueryResult> heap_;  // Binary heap ordered by OlderFirst
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_CORE_TOPK_H_
