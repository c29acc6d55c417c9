// CandidateSink: the one candidate-validation loop behind every posting-list
// query — Eager / Lazy / Composite LOOKUP and RANGELOOKUP (paper Sections
// 4.1.1, 4.1.2, 4.2). Eager RANGELOOKUP and Composite hand the sink a
// gathered batch (OfferNewestFirst), which owns the newest-first order and
// its stop rule; Lazy enumerates postings itself, applies its own stop rule
// through WouldAdmit / Full / stale_admitted, and Offers each surviving
// (primary key, stored seq). The sink owns everything after that:
//
//   * the per-primary-key seen-set (a key is validated at most once): one
//     flat KeySet per query, whose inserts copy the key into an arena and
//     allocate no node. A caller that already dedupes (Lazy LOOKUP's
//     shadowing set holds every posting it reads) uses OfferDistinct, so
//     each posting is hashed once;
//   * resolution against the primary table, through one ReadView and one
//     TablePins the sink holds for the whole query: with read_parallelism
//     <= 1 each candidate is one GetWithMeta as soon as it is offered (the
//     paper's sequential walk, Algorithm 1); above that candidates
//     accumulate into chunks of max(K, p) keys (K counted as 64 when
//     unlimited), each one MultiGetWithMeta. The pins' BlockMemo reads a
//     primary block once when consecutive candidates land in it, so the
//     sink reads at most one block per candidate, not exactly one;
//   * the record predicate: attribute in [lo, hi];
//   * Algorithm 1's top-K heap (TopKCollector: records stay in their
//     slots, sorted once at Finish), and the stale_admitted flag.
//
// Chunked resolution only changes WHEN candidates are checked, never WHAT is
// admitted: WouldAdmit reads the heap as of the last chunk boundary, a
// conservative superset of the sequential pruning, and Add applies the exact
// admission predicate in offer order — so results are byte-identical at
// every read_parallelism.
//
// A NotFound from the primary is a stale posting (the record was deleted);
// any other status — Corruption or IOError under paranoid_checks, say — is
// returned to the caller instead of silently dropping the record.

#ifndef LEVELDBPP_CORE_CANDIDATE_SINK_H_
#define LEVELDBPP_CORE_CANDIDATE_SINK_H_

#include <string>
#include <vector>

#include "core/secondary_index.h"
#include "util/key_set.h"

namespace leveldbpp {

class CandidateSink {
 public:
  /// Validates a candidate by its current record's `attribute` lying in
  /// [lo, hi], as of the primary's state when the sink is built (its
  /// ReadView). `attribute`, `lo` and `hi` must outlive the sink.
  CandidateSink(DBImpl* primary, size_t k, const std::string& attribute,
                const Slice& lo, const Slice& hi);

  CandidateSink(const CandidateSink&) = delete;
  CandidateSink& operator=(const CandidateSink&) = delete;

  /// Could a candidate whose posting stores `stored_seq` still enter the
  /// top-K? A validated result's seq never exceeds the stored seq of the
  /// posting that produced it, so on a seq-descending stream the first
  /// `false` is a sound place to stop.
  bool WouldAdmit(SequenceNumber stored_seq) const {
    return heap_.WouldAdmit(stored_seq);
  }

  /// True iff K results have been admitted (never for K == 0).
  bool Full() const { return heap_.Full(); }

  /// True once an admitted result validated at a LOWER seq than its posting
  /// stored — a crash-stale posting (index written ahead of a primary put
  /// that never committed). After that, "heap full" no longer proves that
  /// older postings cannot displace anything.
  bool stale_admitted() const { return stale_admitted_; }

  /// Queue one candidate for validation; a primary key already offered is
  /// ignored. Resolves the pending chunk once it is full (immediately when
  /// read_parallelism <= 1).
  Status Offer(const Slice& primary_key, SequenceNumber stored_seq);

  /// Offer for a caller that dedupes itself: `primary_key` must not have
  /// been offered to this sink before. Skips the sink's seen-set.
  Status OfferDistinct(const Slice& primary_key, SequenceNumber stored_seq);

  /// Offer a whole batch newest-stored-first: sorts `candidates` by stored
  /// seq descending (ties by primary key ascending) and offers them until
  /// the first one WouldAdmit rejects. Sound because a candidate validates
  /// at or below its stored seq, so no later one could enter the heap.
  Status OfferNewestFirst(std::vector<PostingCandidate>* candidates);

  /// Resolve every pending candidate now. Callers whose stop rule needs an
  /// exact heap (Lazy's level boundary) flush before consulting it.
  Status Flush();

  /// Flush, then move out the results, newest first.
  Status Finish(std::vector<QueryResult>* results);

 private:
  /// Fetch the current records of the pending keys into values_, locs_
  /// and statuses_: one GetWithMeta per key when the primary's
  /// read_parallelism <= 1, one MultiGetWithMeta otherwise. NotFound is
  /// not an error; any other per-key status is returned.
  Status Fetch();

  bool Matches(const Slice& record) const;

  DBImpl* const primary_;
  const DBImpl::ReadView view_;
  TablePins pins_;
  TopKCollector heap_;
  const std::string& attribute_;
  const Slice lo_, hi_;
  const size_t chunk_;
  KeySet seen_;
  std::vector<std::string> pending_;
  std::vector<SequenceNumber> pending_seqs_;  // Stored seq per pending key
  // Fetch's per-key outputs, reused from chunk to chunk.
  std::vector<Slice> keys_;
  std::vector<std::string> values_;
  std::vector<DBImpl::RecordLocation> locs_;
  std::vector<Status> statuses_;
  bool stale_admitted_ = false;
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_CORE_CANDIDATE_SINK_H_
