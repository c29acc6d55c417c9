// TopKCollector: the min-heap of Algorithm 1 in the paper. Maintains the K
// most recent (highest sequence number) matches; the heap root is the
// OLDEST retained match, so a candidate older than the root of a full heap
// is rejected without any further work (in particular, before the
// per-candidate validity check, which may cost a disk read).
//
// Records never move through the heap. With K > 0 each admitted record
// sits in one of K slots and the heap orders (seq, slot) pairs; a record
// that displaces the root is moved once, into the root's slot. With K = 0
// (no limit) nothing is ever evicted, so matches are just appended. Either
// way the results are sorted once, when they are taken: seq descending,
// ties by primary key ascending (shards without a shared sequence counter
// can hand ShardedDB's merge equal seqs).

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
    return !Full() || seq > heap_.front().seq;
  }

  /// True iff K matches have been collected (never true for k == 0).
  bool Full() const { return k_ != 0 && records_.size() >= k_; }

  size_t Size() const { return records_.size(); }

  /// Admit a match (Algorithm 1: pop the oldest if the heap is full).
  /// Returns false if the candidate was older than everything retained.
  bool Add(QueryResult result) {
    if (k_ == 0) {
      records_.push_back(std::move(result));
      return true;
    }
    if (Full()) {
      if (result.seq <= heap_.front().seq) return false;
      std::pop_heap(heap_.begin(), heap_.end(), OlderFirst());
      Entry& evicted = heap_.back();
      evicted.seq = result.seq;
      records_[evicted.slot] = std::move(result);
    } else {
      heap_.push_back(Entry{result.seq, records_.size()});
      records_.push_back(std::move(result));
    }
    std::push_heap(heap_.begin(), heap_.end(), OlderFirst());
    return true;
  }

  /// Extract results ordered newest-first (ties by primary key), moving
  /// each record out once. Destroys the collector's state.
  std::vector<QueryResult> TakeSortedNewestFirst() {
    std::vector<Entry> order;
    if (k_ == 0) {
      order.reserve(records_.size());
      for (size_t i = 0; i < records_.size(); i++) {
        order.push_back(Entry{records_[i].seq, i});
      }
    } else {
      order.swap(heap_);
    }
    std::sort(order.begin(), order.end(),
              [this](const Entry& a, const Entry& b) {
                if (a.seq != b.seq) return a.seq > b.seq;
                return records_[a.slot].primary_key <
                       records_[b.slot].primary_key;
              });
    std::vector<QueryResult> out;
    out.reserve(order.size());
    for (const Entry& e : order) out.push_back(std::move(records_[e.slot]));
    records_.clear();
    return out;
  }

 private:
  struct Entry {
    SequenceNumber seq;
    size_t slot;  // Index into records_
  };

  struct OlderFirst {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.seq > b.seq;  // Min-heap on seq
    }
  };

  size_t k_;
  std::vector<QueryResult> records_;  // At most k_ when k_ > 0
  std::vector<Entry> heap_;  // K > 0 only: binary heap ordered by OlderFirst
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_CORE_TOPK_H_
