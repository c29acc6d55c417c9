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
// version ending an earlier block (versions sort newest-first and can
// straddle a block boundary). The in-memory index seek InternalGet itself
// makes tells whether they do; only then does one same-table probe, settled
// by Get's rule, read that earlier block. Otherwise the probe would land on
// `block` — the one being scanned — and find this very entry.
Status SupersededWithinTable(Table* table, size_t block,
                             const ReadOptions& read_options, bool paranoid,
                             const ParsedInternalKey& ikey,
                             bool* superseded) {
  *superseded = false;
  LookupKey lk(ikey.user_key, kMaxSequenceNumber);
  if (table->BlockIndexForKey(lk.internal_key()) >= block) {
    return Status::OK();
  }
  KeyProbe probe(BytewiseComparator(), ikey.user_key);
  probe.io = table->InternalGet(read_options, lk.internal_key(), &probe,
                                &KeyProbe::Save);
  Status s;
  if (!probe.Settles(paranoid, &s)) return Status::OK();
  if (!probe.hit()) return s;
  *superseded = probe.seq > ikey.sequence;
  return Status::OK();
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
  const ReadOptions read_options;
  // The memtable pass, the disk pass and every GetLite check read this one
  // view, so a record is judged against the state it was found in: writes
  // and compactions racing the scan can neither hide a newer version nor
  // let two versions of one key both pass.
  DBImpl::ReadView view(primary_, read_options);
  // A block that fails its checksum decodes to an error iterator (never
  // Valid), so the scan naturally skips it — the quarantine fallthrough. In
  // paranoid mode the error must surface instead (first one wins).
  const bool paranoid = primary_->options().paranoid_checks;
  const int parallelism = primary_->options().read_parallelism;
  Status error;
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
  // buckets is counted once. The GetLite validity check already rejects
  // superseded copies; the set only guards against double-admitting the
  // SAME (key, seq) from overlapping sources.
  std::set<std::pair<std::string, SequenceNumber>> admitted;

  // Would the heap take this record? In-range, passes the filter, not yet
  // admitted, and — the paper's GetLite — still the newest version of its
  // key: only residences NEWER than the record's own are probed, via
  // in-memory metadata; confirm reads happen only on bloom false
  // positives. Reads only state that is frozen while block tasks run.
  auto qualifies = [&](const Slice& user_key, SequenceNumber seq,
                       const Slice& record, int level, uint64_t file,
                       std::string* attr_scratch, Status* s) {
    if (!heap.WouldAdmit(seq)) return false;
    if (!extractor->Extract(record, attribute_, attr_scratch)) return false;
    Slice av(*attr_scratch);
    if (av.compare(lo) < 0 || av.compare(hi) > 0) return false;
    if (filter != nullptr && !(*filter)(record)) return false;
    if (admitted.count(std::make_pair(user_key.ToString(), seq)) != 0) {
      return false;
    }
    bool newest = false;
    *s = primary_->IsNewestVersion(view, user_key, seq, &newest, level, file);
    return s->ok() && newest;
  };
  auto admit = [&](std::string user_key, SequenceNumber seq,
                   std::string record) {
    if (!heap.WouldAdmit(seq)) return;
    auto id = std::make_pair(std::move(user_key), seq);
    if (admitted.count(id) != 0) return;
    QueryResult r;
    r.primary_key = id.first;
    r.seq = seq;
    r.value = std::move(record);
    if (heap.Add(std::move(r))) admitted.insert(std::move(id));
  };
  // The sequential admission: test and admit each record as it comes.
  std::string attr_scratch;
  auto consider = [&](const Slice& user_key, SequenceNumber seq,
                      const Slice& record, int level, uint64_t file) {
    Status s;
    if (qualifies(user_key, seq, record, level, file, &attr_scratch, &s)) {
      admit(user_key.ToString(), seq, record.ToString());
    }
    if (error.ok()) error = s;
  };

  // The one block-decode loop: hands every entry of a candidate block that
  // can be its key's live version to `emit` and returns the first read
  // error (the block's own checksum failure only in paranoid mode). Pure
  // over the pinned, immutable tables, so the parallel path runs it on any
  // thread.
  auto scan_block =
      [&](const DBImpl::BlockCandidate& c,
          const std::function<void(const ParsedInternalKey&, const Slice&)>&
              emit) {
        if (!block_may_pass_residual(c.table, c.block)) return Status::OK();
        std::unique_ptr<Iterator> it(
            c.table->NewDataBlockIterator(read_options, c.block));
        std::string prev_key;  // In-block adjacency dedup
        bool first_entry = true;
        Status s;
        for (it->SeekToFirst(); it->Valid() && s.ok(); it->Next()) {
          ParsedInternalKey ikey;
          if (!ParseInternalKey(it->key(), &ikey)) continue;
          // Counted before any pruning, so the value depends only on the
          // candidate blocks (identical at every read_parallelism).
          PerfCounterAdd(&PerfContext::candidate_records_scanned, 1);
          // Versions of one user key sort adjacent, newest first; only the
          // first can be the live version.
          if (!prev_key.empty() && Slice(prev_key) == ikey.user_key) {
            first_entry = false;
            continue;
          }
          prev_key.assign(ikey.user_key.data(), ikey.user_key.size());
          const bool was_first = first_entry;
          first_entry = false;
          if (ikey.type != kTypeValue) continue;
          bool superseded = false;
          if (was_first && c.block > 0) {
            s = SupersededWithinTable(c.table, c.block, read_options,
                                      paranoid, ikey, &superseded);
          }
          if (s.ok() && !superseded) emit(ikey, it->value());
        }
        if (s.ok() && paranoid) s = it->status();
        return s;
      };

  // Memtable data first, then disk levels newest first; candidate blocks
  // are chosen by the embedded per-block bloom filters (point lookups) and
  // zone maps.
  auto visit_bucket = [&](const std::vector<DBImpl::BlockCandidate>& cands) {
    if (parallelism <= 1) {
      for (const DBImpl::BlockCandidate& c : cands) {
        Status bs = scan_block(c, [&](const ParsedInternalKey& ikey,
                                      const Slice& record) {
          consider(ikey.user_key, ikey.sequence, record, c.level, c.file);
        });
        if (error.ok()) error = bs;
      }
      return;
    }
    // Parallel path: the bucket's blocks are decoded and their entries
    // tested concurrently, then the stateful admission (WouldAdmit,
    // admitted-set dedup, heap Add) is replayed on this thread in the exact
    // (file, block, entry) order of the sequential path, making the final
    // heap byte-identical. The bucket goes in WAVES of a few blocks per
    // executor: the replay runs between waves, so the heap the tasks
    // consult for pruning is at most one wave stale (one ParallelRun over
    // the whole bucket would see an empty heap and extract/validate every
    // in-range entry the sequential scan prunes).
    struct Match {
      std::string user_key;
      SequenceNumber seq;
      std::string record;
    };
    const size_t wave_size = static_cast<size_t>(parallelism) * 4;
    for (size_t wave = 0; wave < cands.size(); wave += wave_size) {
      const size_t wave_end = std::min(cands.size(), wave + wave_size);
      std::vector<std::vector<Match>> block_matches(wave_end - wave);
      std::vector<Status> block_status(wave_end - wave);
      // Coarse tasks (a contiguous run of blocks each) so the pool dispatch
      // overhead amortizes over several block reads.
      const size_t ntasks =
          std::min(wave_end - wave, static_cast<size_t>(parallelism) * 2);
      std::vector<std::function<void()>> tasks;
      tasks.reserve(ntasks);
      for (size_t t = 0; t < ntasks; t++) {
        const size_t begin = wave + (wave_end - wave) * t / ntasks;
        const size_t end = wave + (wave_end - wave) * (t + 1) / ntasks;
        tasks.push_back([&, wave, begin, end]() {
          std::string scratch;
          for (size_t ci = begin; ci < end; ci++) {
            const DBImpl::BlockCandidate& c = cands[ci];
            Status* bs = &block_status[ci - wave];
            Status decode = scan_block(c, [&](const ParsedInternalKey& ikey,
                                              const Slice& record) {
              Status s;
              if (qualifies(ikey.user_key, ikey.sequence, record, c.level,
                            c.file, &scratch, &s)) {
                block_matches[ci - wave].push_back(
                    Match{ikey.user_key.ToString(), ikey.sequence,
                          record.ToString()});
              }
              if (bs->ok()) *bs = s;
            });
            if (bs->ok()) *bs = decode;
          }
        });
      }
      ParallelRun(&tasks, parallelism, primary_->statistics());
      for (const Status& bs : block_status) {
        if (error.ok()) error = bs;
      }
      for (std::vector<Match>& matches : block_matches) {
        for (Match& m : matches) {
          admit(std::move(m.user_key), m.seq, std::move(m.record));
        }
      }
    }
  };

  Status s = primary_->EmbeddedScanBuckets(
      view, attribute_, lo, hi,
      [&](const Slice& user_key, SequenceNumber seq, const Slice& record) {
        PerfCounterAdd(&PerfContext::candidate_records_scanned, 1);
        consider(user_key, seq, record, /*level=*/-1, /*file=*/0);
      },
      visit_bucket,
      [&](SequenceNumber remaining_max) {
        // Level boundary: records within a level are not time-ordered, so
        // termination is only checked here (Algorithm 5) — and only once no
        // unscanned file can hold a record newer than the heap's oldest
        // retained match (files spliced in by ingest carry newer sequences
        // than shallower pre-existing data). Memtable data is newer than
        // anything on disk, so a heap the memtables filled stops here
        // before the first bucket.
        return error.ok() && (!heap.Full() || heap.WouldAdmit(remaining_max));
      });
  if (!s.ok()) return s;
  if (!error.ok()) return error;
  *results = heap.TakeSortedNewestFirst();
  return Status::OK();
}

}  // namespace leveldbpp
