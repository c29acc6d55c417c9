#include "core/embedded_index.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <utility>

#include "core/document.h"
#include "env/thread_pool.h"
#include "util/perf_context.h"

namespace leveldbpp {

namespace {

// A match that is the FIRST entry of its block may have a newer same-file
// version ending the previous block (versions sort newest-first and can
// straddle a block boundary). One same-table probe resolves it.
bool SupersededWithinTable(Table* table, const ReadOptions& read_options,
                           const ParsedInternalKey& ikey) {
  LookupKey lk(ikey.user_key, kMaxSequenceNumber);
  struct Ctx {
    Slice user_key;
    SequenceNumber newest = 0;
  } ctx;
  ctx.user_key = ikey.user_key;
  table->InternalGet(read_options, lk.internal_key(), &ctx,
                     [](void* arg, const Slice& k, const Slice&) {
                       Ctx* c = reinterpret_cast<Ctx*>(arg);
                       ParsedInternalKey p;
                       if (ParseInternalKey(k, &p) &&
                           p.user_key == c->user_key) {
                         c->newest = p.sequence;
                       }
                     });
  return ctx.newest > ikey.sequence;
}

}  // namespace

Status EmbeddedIndex::Scan(const Slice& lo, const Slice& hi, size_t k,
                           std::vector<QueryResult>* results,
                           const RecordFilter* filter,
                           const std::string* prune_attr,
                           const std::vector<std::string>* prune_values) {
  results->clear();
  TopKCollector heap(k);
  const JsonAttributeExtractor* extractor = JsonAttributeExtractor::Instance();
  // Conjunctive pre-pruning (LookupWhere): a candidate block must ALSO be
  // able to contain one of the residual IN values — the second attribute's
  // embedded bloom + zone map answer that without reading the block. Sound
  // because a pruned block provably holds no record passing the residual
  // predicate, so skipping it cannot change the result set.
  auto block_may_pass_residual = [&](Table* table, size_t block) {
    if (prune_attr == nullptr || prune_values == nullptr ||
        prune_values->empty()) {
      return true;
    }
    for (const std::string& v : *prune_values) {
      if (table->SecondaryBlockMayContain(*prune_attr, Slice(v), block)) {
        return true;
      }
    }
    return false;
  };
  // Records admitted to the heap, so one record matched in several recency
  // buckets (e.g. valid version + stale older copies) is counted once. The
  // GetLite validity check already rejects superseded copies; the set only
  // guards against double-admitting the SAME (key, seq) from overlapping
  // sources.
  std::set<std::pair<std::string, SequenceNumber>> admitted;
  std::string attr_scratch;

  auto consider = [&](const Slice& user_key, SequenceNumber seq,
                      const Slice& record, int level, uint64_t file) {
    if (!heap.WouldAdmit(seq)) return;
    if (!extractor->Extract(record, attribute_, &attr_scratch)) return;
    Slice av(attr_scratch);
    if (av.compare(lo) < 0 || av.compare(hi) > 0) return;
    if (filter != nullptr && !(*filter)(record)) return;
    auto id = std::make_pair(user_key.ToString(), seq);
    if (admitted.count(id) != 0) return;
    // Validity: is this record still the newest version of its key? This is
    // the paper's GetLite — only residences NEWER than the record's own are
    // probed, via in-memory metadata; confirm reads happen only on bloom
    // false positives.
    if (!primary_->IsNewestVersion(user_key, seq, level, file)) return;
    QueryResult r;
    r.primary_key = id.first;
    r.seq = seq;
    r.value = record.ToString();
    if (heap.Add(std::move(r))) {
      admitted.insert(std::move(id));
    }
  };

  // 1. Memtable(s): in-memory attribute tree over unflushed records.
  primary_->MemTableSecondaryLookup(
      attribute_, lo, hi,
      [&](const Slice& user_key, SequenceNumber seq, const Slice& record) {
        PerfCounterAdd(&PerfContext::candidate_records_scanned, 1);
        consider(user_key, seq, record, /*level=*/-1, /*file=*/0);
      });

  // Memtable data is strictly newer than anything on disk; if the heap is
  // already full the disk scan cannot displace anything.
  if (heap.Full()) {
    *results = heap.TakeSortedNewestFirst();
    return Status::OK();
  }

  // 2. Disk levels, newest first; candidate blocks are chosen by the
  //    embedded per-block bloom filters (point lookups) and zone maps.
  ReadOptions read_options;
  std::string prev_user_key;  // In-block adjacency dedup (versions adjacent)
  Status scan_status;
  // A block that fails its checksum decodes to an error iterator (never
  // Valid), so the scan naturally skips it — the quarantine fallthrough. In
  // paranoid mode the error must surface instead (first one wins).
  const bool paranoid = primary_->options().paranoid_checks;
  Status block_error;
  const bool parallel_reads = primary_->options().read_parallelism > 1;
  if (!parallel_reads) {
    scan_status = primary_->EmbeddedScan(
        read_options, attribute_, lo, hi,
        [&](Table* table, size_t block, int level, uint64_t file) {
          if (!block_may_pass_residual(table, block)) return;
          std::unique_ptr<Iterator> it(
              table->NewDataBlockIterator(read_options, block));
          prev_user_key.clear();
          bool first_entry = true;
          for (it->SeekToFirst(); it->Valid(); it->Next()) {
            ParsedInternalKey ikey;
            if (!ParseInternalKey(it->key(), &ikey)) continue;
            // Counted before any pruning, so the value depends only on the
            // candidate blocks (identical at every read_parallelism).
            PerfCounterAdd(&PerfContext::candidate_records_scanned, 1);
            // Versions of one user key sort adjacent, newest first; only
            // the first can be the live version.
            if (!prev_user_key.empty() &&
                Slice(prev_user_key) == ikey.user_key) {
              first_entry = false;
              continue;
            }
            prev_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
            if (ikey.type == kTypeValue) {
              // Edge case: if the match is the FIRST entry of its block, a
              // newer same-file version may end the previous block (versions
              // sort newest-first and can straddle a block boundary). One
              // same-table probe resolves it.
              bool superseded =
                  first_entry && block > 0 &&
                  SupersededWithinTable(table, read_options, ikey);
              if (!superseded) {
                consider(ikey.user_key, ikey.sequence, it->value(), level,
                         file);
              }
            }
            first_entry = false;
          }
          if (paranoid && block_error.ok() && !it->status().ok()) {
            block_error = it->status();
          }
        },
        [&](SequenceNumber remaining_max) {
          // Level boundary: records within a level are not time-ordered, so
          // termination is only checked here (Algorithm 5) — and only once
          // no unscanned file can hold a record newer than the heap's
          // oldest retained match (files spliced in by ingest carry newer
          // sequences than shallower pre-existing data).
          return !heap.Full() || heap.WouldAdmit(remaining_max);
        });
  } else {
    // Parallel path: within one recency bucket the candidate blocks are
    // read and pre-filtered concurrently. Everything a task computes —
    // block decode, supersede probe, attribute extract + range check, and
    // the GetLite validity check — is a pure function of the pinned,
    // immutable store state, so it can run on any thread. The stateful
    // admission (WouldAdmit, admitted-set dedup, heap Add) is replayed on
    // the calling thread in the exact (file, block, entry) order the
    // sequential scan uses, making the final heap byte-identical.
    struct Match {
      std::string user_key;
      SequenceNumber seq;
      std::string record;
    };
    const int parallelism = primary_->options().read_parallelism;
    scan_status = primary_->EmbeddedScanBuckets(
        read_options, attribute_, lo, hi,
        [&](const std::vector<DBImpl::BlockCandidate>& cands) {
          // The bucket is processed in WAVES of a few blocks per executor:
          // the merge below runs between waves, so the heap the tasks
          // consult for pruning is at most one wave stale. One big
          // ParallelRun over the whole bucket would see an empty heap and
          // extract/validate every in-range entry the sequential scan
          // prunes.
          const size_t wave_size = static_cast<size_t>(parallelism) * 4;
          for (size_t wave = 0; wave < cands.size(); wave += wave_size) {
          const size_t wave_end = std::min(cands.size(), wave + wave_size);
          std::vector<std::vector<Match>> block_matches(wave_end - wave);
          std::vector<Status> block_status(wave_end - wave);
          // Coarse tasks (a contiguous run of blocks each) so the pool
          // dispatch overhead amortizes over several block reads.
          const size_t ntasks = std::min(
              wave_end - wave, static_cast<size_t>(parallelism) * 2);
          std::vector<std::function<void()>> tasks;
          tasks.reserve(ntasks);
          for (size_t t = 0; t < ntasks; t++) {
            const size_t begin = wave + (wave_end - wave) * t / ntasks;
            const size_t end = wave + (wave_end - wave) * (t + 1) / ntasks;
            tasks.push_back([this, &cands, &block_matches, &block_status,
                             paranoid, wave, begin, end, &read_options, &lo,
                             &hi, &heap, extractor, filter,
                             &block_may_pass_residual]() {
              std::string prev_key;
              std::string attr_scratch;
              for (size_t ci = begin; ci < end; ci++) {
                const DBImpl::BlockCandidate& c = cands[ci];
                if (!block_may_pass_residual(c.table, c.block)) continue;
                std::vector<Match>* out = &block_matches[ci - wave];
                std::unique_ptr<Iterator> it(
                    c.table->NewDataBlockIterator(read_options, c.block));
                prev_key.clear();
                bool first_entry = true;
                for (it->SeekToFirst(); it->Valid(); it->Next()) {
                  ParsedInternalKey ikey;
                  if (!ParseInternalKey(it->key(), &ikey)) continue;
                  // Same pre-pruning point as the sequential scan, so the
                  // per-query total matches it exactly.
                  PerfCounterAdd(&PerfContext::candidate_records_scanned, 1);
                  if (!prev_key.empty() &&
                      Slice(prev_key) == ikey.user_key) {
                    first_entry = false;
                    continue;
                  }
                  prev_key.assign(ikey.user_key.data(),
                                  ikey.user_key.size());
                  const bool was_first = first_entry;
                  first_entry = false;
                  if (ikey.type != kTypeValue) continue;
                  // Safe cross-thread pruning: the heap is frozen while
                  // ParallelRun is in flight (the merge below runs after),
                  // so this reads the wave-start state — a conservative
                  // subset of the pruning the sequential interleaving
                  // applies, skipped entries are skipped by both.
                  if (!heap.WouldAdmit(ikey.sequence)) continue;
                  bool superseded =
                      was_first && c.block > 0 &&
                      SupersededWithinTable(c.table, read_options, ikey);
                  if (!superseded &&
                      extractor->Extract(it->value(), attribute_,
                                         &attr_scratch)) {
                    Slice av(attr_scratch);
                    if (av.compare(lo) >= 0 && av.compare(hi) <= 0 &&
                        (filter == nullptr || (*filter)(it->value())) &&
                        primary_->IsNewestVersion(ikey.user_key,
                                                  ikey.sequence, c.level,
                                                  c.file)) {
                      out->push_back(Match{ikey.user_key.ToString(),
                                           ikey.sequence,
                                           it->value().ToString()});
                    }
                  }
                }
                if (paranoid && !it->status().ok()) {
                  block_status[ci - wave] = it->status();
                }
              }
            });
          }
          ParallelRun(&tasks, parallelism, primary_->statistics());
          for (const Status& bs : block_status) {
            if (block_error.ok() && !bs.ok()) block_error = bs;
          }
          for (std::vector<Match>& matches : block_matches) {
            for (Match& m : matches) {
              if (!heap.WouldAdmit(m.seq)) continue;
              auto id = std::make_pair(std::move(m.user_key), m.seq);
              if (admitted.count(id) != 0) continue;
              QueryResult r;
              r.primary_key = id.first;
              r.seq = m.seq;
              r.value = std::move(m.record);
              if (heap.Add(std::move(r))) {
                admitted.insert(std::move(id));
              }
            }
          }
          }  // wave
        },
        [&](SequenceNumber remaining_max) {
          return !heap.Full() || heap.WouldAdmit(remaining_max);
        });
  }

  if (!scan_status.ok()) return scan_status;
  if (!block_error.ok()) return block_error;
  *results = heap.TakeSortedNewestFirst();
  return Status::OK();
}

}  // namespace leveldbpp
