#include "core/embedded_index.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/document.h"
#include "env/thread_pool.h"
#include "util/coding.h"
#include "util/key_set.h"
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
  BlockMemo memo;
  probe.io = table->InternalGet(read_options, lk.internal_key(), &memo,
                                &probe, &KeyProbe::Save);
  if (probe.hit()) {
    *superseded = probe.seq > ikey.sequence;
    return Status::OK();
  }
  Status s;
  probe.Settles(paranoid, &s);  // OK unless the probe failed
  return s;
}

// The most decoded blocks a top-K scan holds for one newest-first
// admission batch (~0.5 MB at the default 4 KB block size). A bucket with
// more candidate blocks — a range on an attribute that does not follow
// time — is admitted in several batches, so the memory a query holds does
// not grow with the database.
constexpr size_t kMaxHeldBlocks = 128;

// Scan entries awaiting admission. Records stay slices into the decoded
// blocks, which `blocks` holds open (memtable records point into the
// pinned memtables); keys are copied into `keys`, since a block iterator
// rebuilds its key() for every entry.
struct ScanBatch {
  struct Entry {
    size_t key_offset;
    size_t key_size;
    SequenceNumber seq;
    Slice record;
    int level;
    uint64_t file;
  };

  void Add(const Slice& user_key, SequenceNumber seq, const Slice& record,
           int level, uint64_t file) {
    entries.push_back(
        Entry{keys.size(), user_key.size(), seq, record, level, file});
    keys.append(user_key.data(), user_key.size());
  }

  Slice Key(const Entry& e) const {
    return Slice(keys.data() + e.key_offset, e.key_size);
  }

  void Append(ScanBatch&& other) {
    if (entries.empty() && blocks.empty()) {
      *this = std::move(other);
      return;
    }
    const size_t base = keys.size();
    keys.append(other.keys);
    for (Entry& e : other.entries) {
      e.key_offset += base;
      entries.push_back(e);
    }
    for (std::unique_ptr<Iterator>& b : other.blocks) {
      blocks.push_back(std::move(b));
    }
  }

  void Clear() {
    keys.clear();
    entries.clear();
    blocks.clear();
  }

  std::string keys;
  std::vector<Entry> entries;
  std::vector<std::unique_ptr<Iterator>> blocks;
};

}  // namespace

Status EmbeddedIndex::Scan(const Slice& lo, const Slice& hi, size_t k,
                           std::vector<QueryResult>* results) {
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
  // Records admitted to the heap, so one record matched in several recency
  // buckets is counted once. The GetLite validity check already rejects
  // superseded copies; the set only guards against double-admitting the
  // SAME (key, seq) from overlapping sources. Keyed by
  // EncodeKeyPair(key, fixed64 seq), which admitted_id builds in *buf.
  KeySet admitted;
  auto admitted_id = [](const Slice& user_key, SequenceNumber seq,
                        std::string* buf) {
    char seq_bytes[8];
    EncodeFixed64(seq_bytes, seq);
    EncodeKeyPair(user_key, Slice(seq_bytes, sizeof(seq_bytes)), buf);
    return Slice(*buf);
  };

  // Does the record itself match? Its attribute lies in [lo, hi].
  auto matches = [&](const Slice& record, std::string* attr_scratch) {
    if (!extractor->Extract(record, attribute_, attr_scratch)) return false;
    Slice av(*attr_scratch);
    return av.compare(lo) >= 0 && av.compare(hi) <= 0;
  };
  // Would the heap take this record? It matches, is not yet admitted, and —
  // the paper's GetLite — is still the newest version of its key: only
  // residences NEWER than the record's own are probed, via in-memory
  // metadata; confirm reads happen only on bloom false positives. Reads
  // only state that is frozen while pool tasks run.
  auto qualifies = [&](const Slice& user_key, SequenceNumber seq,
                       const Slice& record, int level, uint64_t file,
                       std::string* attr_scratch, Status* s) {
    if (!heap.WouldAdmit(seq)) return false;
    if (!matches(record, attr_scratch)) return false;
    // The attribute is compared, so attr_scratch is free to hold the id.
    if (admitted.Contains(admitted_id(user_key, seq, attr_scratch))) {
      return false;
    }
    bool newest = false;
    *s = primary_->IsNewestVersion(view, user_key, seq, &newest, level, file);
    return s->ok() && newest;
  };
  std::string id;  // admit's id buffer: admission runs on this thread
  auto admit = [&](const Slice& user_key, SequenceNumber seq,
                   const Slice& record) {
    if (!heap.WouldAdmit(seq)) return;
    const Slice key_seq = admitted_id(user_key, seq, &id);
    if (admitted.Contains(key_seq)) return;
    QueryResult r;
    r.primary_key = user_key.ToString();
    r.seq = seq;
    r.value = record.ToString();
    if (heap.Add(std::move(r))) admitted.Insert(key_seq);
  };

  // Holds a found entry in `out` for admission, testing it where it is
  // found (on the read pool in parallel) as far as the heap allows. A record
  // older than the heap floor as of the last admission is dropped at once.
  // At K = 0 there is no floor, so only a qualifying record is held. With
  // K > 0 GetLite waits for the newest-first admission below; a parallel
  // scan still drops non-matching records on the pool, while a sequential
  // one defers the whole test so it extracts only records that can still
  // reach the heap.
  auto hold = [&](ScanBatch* out, const Slice& user_key, SequenceNumber seq,
                  const Slice& record, int level, uint64_t file,
                  std::string* attr_scratch) {
    Status s;
    const bool keep =
        heap.WouldAdmit(seq) &&
        (k == 0
             ? qualifies(user_key, seq, record, level, file, attr_scratch, &s)
             : parallelism <= 1 || matches(record, attr_scratch));
    if (keep) out->Add(user_key, seq, record, level, file);
    return s;
  };

  // The one block-decode loop: holds every entry of a candidate block that
  // can be its key's live version in `out` (keeping the block open) and
  // returns the first read error (the block's own checksum failure only in
  // paranoid mode). Pure over the pinned, immutable tables, so it runs on
  // any thread.
  auto scan_block = [&](const DBImpl::BlockCandidate& c, ScanBatch* out,
                        std::string* attr_scratch) {
    std::unique_ptr<Iterator> it(
        c.table->NewDataBlockIterator(read_options, c.block));
    const size_t before = out->entries.size();
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
        s = SupersededWithinTable(c.table, c.block, read_options, paranoid,
                                  ikey, &superseded);
      }
      if (s.ok() && !superseded) {
        s = hold(out, ikey.user_key, ikey.sequence, it->value(), c.level,
                 c.file, attr_scratch);
      }
    }
    if (s.ok() && paranoid) s = it->status();
    if (out->entries.size() > before) out->blocks.push_back(std::move(it));
    return s;
  };

  // Entries awaiting admission: the memtable pass's records, then one batch
  // of decoded blocks at a time. With read_parallelism > 1 a batch's blocks
  // are decoded by coarse pool tasks (a contiguous run of blocks each, so
  // the dispatch overhead amortizes over several block reads).
  ScanBatch pending;
  std::string attr_scratch;
  auto decode = [&](const std::vector<DBImpl::BlockCandidate>& cands,
                    size_t begin, size_t end) {
    const size_t ntasks = std::min(
        end - begin,
        parallelism <= 1 ? size_t{1} : static_cast<size_t>(parallelism) * 2);
    if (ntasks <= 1) {
      for (size_t i = begin; i < end && error.ok(); i++) {
        error = scan_block(cands[i], &pending, &attr_scratch);
      }
      return;
    }
    std::vector<ScanBatch> parts(ntasks);
    std::vector<Status> status(ntasks);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(ntasks);
    for (size_t t = 0; t < ntasks; t++) {
      tasks.push_back([&, t]() {
        const size_t n = end - begin;
        std::string scratch;
        for (size_t i = begin + n * t / ntasks;
             i < begin + n * (t + 1) / ntasks && status[t].ok(); i++) {
          status[t] = scan_block(cands[i], &parts[t], &scratch);
        }
      });
    }
    ParallelRun(&tasks, parallelism, primary_->statistics());
    for (size_t t = 0; t < ntasks; t++) {
      if (error.ok()) error = status[t];
      pending.Append(std::move(parts[t]));
    }
  };

  // The admission, always on this thread. With K > 0 the batch goes
  // newest-first (seq descending, ties by key) and each entry is tested
  // against the live heap, so the heap fills from the newest matches and the
  // first entry it would reject ends the batch — every later one is older.
  // At K = 0 the held entries already qualify and keep their decode order.
  // The heap ends holding the K newest qualifying records whatever the batch
  // boundaries, so results are byte-identical at every read_parallelism.
  auto drain = [&]() {
    std::vector<ScanBatch::Entry>& entries = pending.entries;
    if (k != 0) {
      std::sort(entries.begin(), entries.end(),
                [&](const ScanBatch::Entry& a, const ScanBatch::Entry& b) {
                  if (a.seq != b.seq) return a.seq > b.seq;
                  return pending.Key(a).compare(pending.Key(b)) < 0;
                });
    }
    for (const ScanBatch::Entry& en : entries) {
      if (!error.ok() || !heap.WouldAdmit(en.seq)) break;
      const Slice user_key = pending.Key(en);
      if (k == 0 || qualifies(user_key, en.seq, en.record, en.level, en.file,
                              &attr_scratch, &error)) {
        admit(user_key, en.seq, en.record);
      }
    }
    pending.Clear();
  };

  // Memtable data first, then disk levels newest first; candidate blocks
  // are chosen by the embedded per-block bloom filters (point lookups) and
  // zone maps. Every candidate block of a visited bucket is read. With
  // K > 0 a bucket is admitted in newest-first batches of up to
  // kMaxHeldBlocks blocks (a time-correlated bucket fits in one); at K = 0
  // each block (each wave of a few blocks per executor in parallel) is
  // admitted as soon as it decodes.
  auto visit_bucket = [&](const std::vector<DBImpl::BlockCandidate>& cands) {
    const size_t batch =
        k != 0 ? kMaxHeldBlocks
               : (parallelism <= 1 ? 1 : static_cast<size_t>(parallelism) * 4);
    for (size_t b = 0; b < cands.size() && error.ok(); b += batch) {
      decode(cands, b, std::min(cands.size(), b + batch));
      drain();
    }
  };

  Status s = primary_->EmbeddedScanBuckets(
      view, attribute_, lo, hi,
      [&](const Slice& user_key, SequenceNumber seq, const Slice& record) {
        PerfCounterAdd(&PerfContext::candidate_records_scanned, 1);
        if (error.ok()) {
          error = hold(&pending, user_key, seq, record, /*level=*/-1,
                       /*file=*/0, &attr_scratch);
        }
      },
      visit_bucket,
      [&](SequenceNumber remaining_max) {
        drain();  // The memtable pass's records, before the first bucket
        // Level boundary: records within a level are not time-ordered, so
        // termination is only checked here (Algorithm 5) — and only once no
        // unscanned file can hold a record newer than the heap's oldest
        // retained match (files spliced in by ingest carry newer sequences
        // than shallower pre-existing data). Memtable data is newer than
        // anything on disk, so a heap the memtables filled stops here
        // before the first bucket.
        return error.ok() && (!heap.Full() || heap.WouldAdmit(remaining_max));
      });
  drain();  // Memtable records when no disk bucket was visited
  if (!s.ok()) return s;
  if (!error.ok()) return error;
  *results = heap.TakeSortedNewestFirst();
  return Status::OK();
}

}  // namespace leveldbpp
