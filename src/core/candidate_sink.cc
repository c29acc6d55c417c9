#include "core/candidate_sink.h"

#include <algorithm>
#include <utility>

#include "core/document.h"
#include "util/perf_context.h"

namespace leveldbpp {

namespace {

// Keys per resolution round: one at a time on the sequential path; with a
// read pool, enough keys to fill the heap (and the pool) per round without
// unbounded overfetch.
size_t ChunkSize(DBImpl* primary, size_t k) {
  const int p = primary->options().read_parallelism;
  if (p <= 1) return 1;
  return std::max(k != 0 ? k : size_t{64}, static_cast<size_t>(p));
}

}  // namespace

CandidateSink::CandidateSink(DBImpl* primary, size_t k,
                             const std::string& attribute, const Slice& lo,
                             const Slice& hi)
    : primary_(primary),
      heap_(k),
      attribute_(attribute),
      lo_(lo),
      hi_(hi),
      chunk_(ChunkSize(primary, k)) {}

bool CandidateSink::Matches(const Slice& record) const {
  std::string attr_value;
  if (!JsonAttributeExtractor::Instance()->Extract(record, attribute_,
                                                   &attr_value)) {
    return false;
  }
  // An updated record that no longer carries a value in range is stale.
  Slice av(attr_value);
  return av.compare(lo_) >= 0 && av.compare(hi_) <= 0;
}

Status CandidateSink::Offer(const Slice& primary_key,
                            SequenceNumber stored_seq) {
  std::string key = primary_key.ToString();
  if (!seen_.insert(key).second) return Status::OK();
  pending_.push_back(std::move(key));
  pending_seqs_.push_back(stored_seq);
  return pending_.size() >= chunk_ ? Flush() : Status::OK();
}

Status CandidateSink::OfferNewestFirst(
    std::vector<PostingCandidate>* candidates) {
  std::sort(candidates->begin(), candidates->end(),
            [](const PostingCandidate& a, const PostingCandidate& b) {
              if (a.seq != b.seq) return a.seq > b.seq;
              return a.primary_key < b.primary_key;
            });
  for (const PostingCandidate& c : *candidates) {
    if (!WouldAdmit(c.seq)) break;
    Status s = Offer(Slice(c.primary_key), c.seq);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status CandidateSink::Flush() {
  const size_t n = pending_.size();
  if (n == 0) return Status::OK();
  ScopedPerfTimer timer(&PerfContext::validate_micros);
  PerfCounterAdd(&PerfContext::candidates_validated, n);
  std::vector<Slice> keys(pending_.begin(), pending_.end());
  std::vector<std::string> values;
  std::vector<DBImpl::RecordLocation> locs;
  std::vector<char> found;
  Status s = Fetch(primary_, keys, &values, &locs, &found);
  if (s.ok()) {
    for (size_t i = 0; i < n; i++) {
      if (!found[i] || !Matches(Slice(values[i]))) continue;
      PerfCounterAdd(&PerfContext::candidates_valid, 1);
      if (locs[i].seq != pending_seqs_[i]) stale_admitted_ = true;
      QueryResult r;
      r.primary_key = std::move(pending_[i]);
      r.seq = locs[i].seq;
      r.value = std::move(values[i]);
      heap_.Add(std::move(r));
    }
  }
  pending_.clear();
  pending_seqs_.clear();
  return s;
}

Status CandidateSink::Finish(std::vector<QueryResult>* results) {
  Status s = Flush();
  if (!s.ok()) return s;
  *results = heap_.TakeSortedNewestFirst();
  return Status::OK();
}

Status CandidateSink::Fetch(DBImpl* primary, const std::vector<Slice>& keys,
                            std::vector<std::string>* values,
                            std::vector<DBImpl::RecordLocation>* locs,
                            std::vector<char>* found) {
  const size_t n = keys.size();
  found->assign(n, 0);
  if (primary->options().read_parallelism <= 1) {
    values->assign(n, std::string());
    locs->assign(n, DBImpl::RecordLocation());
    for (size_t i = 0; i < n; i++) {
      Status s = primary->GetWithMeta(ReadOptions(), keys[i], &(*values)[i],
                                      &(*locs)[i]);
      if (s.ok()) {
        (*found)[i] = 1;
      } else if (!s.IsNotFound()) {
        return s;
      }
    }
    return Status::OK();
  }
  std::vector<Status> statuses;
  Status s =
      primary->MultiGetWithMeta(ReadOptions(), keys, values, locs, &statuses);
  if (!s.ok()) return s;
  for (size_t i = 0; i < n; i++) {
    if (statuses[i].ok()) {
      (*found)[i] = 1;
    } else if (!statuses[i].IsNotFound()) {
      return statuses[i];
    }
  }
  return Status::OK();
}

}  // namespace leveldbpp
