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
      view_(primary, ReadOptions()),
      pins_(primary->table_cache()),
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
  if (!seen_.Insert(primary_key)) return Status::OK();
  return OfferDistinct(primary_key, stored_seq);
}

Status CandidateSink::OfferDistinct(const Slice& primary_key,
                                    SequenceNumber stored_seq) {
  pending_.emplace_back(primary_key.data(), primary_key.size());
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
  Status s = Fetch();
  if (s.ok()) {
    for (size_t i = 0; i < n; i++) {
      if (!statuses_[i].ok() || !Matches(Slice(values_[i]))) continue;
      PerfCounterAdd(&PerfContext::candidates_valid, 1);
      if (locs_[i].seq != pending_seqs_[i]) stale_admitted_ = true;
      QueryResult r;
      r.primary_key = std::move(pending_[i]);
      r.seq = locs_[i].seq;
      r.value = std::move(values_[i]);
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

Status CandidateSink::Fetch() {
  const size_t n = pending_.size();
  if (chunk_ == 1) {  // read_parallelism <= 1
    values_.resize(n);
    locs_.resize(n);
    statuses_.resize(n);
    for (size_t i = 0; i < n; i++) {
      statuses_[i] = primary_->GetWithMeta(view_, &pins_, ReadOptions(),
                                           Slice(pending_[i]), &values_[i],
                                           &locs_[i]);
      if (!statuses_[i].ok() && !statuses_[i].IsNotFound()) {
        return statuses_[i];
      }
    }
    return Status::OK();
  }
  keys_.assign(pending_.begin(), pending_.end());
  // The batch's status is its first per-key error, NotFound aside.
  return primary_->MultiGetWithMeta(view_, &pins_, ReadOptions(), keys_,
                                    &values_, &locs_, &statuses_);
}

}  // namespace leveldbpp
