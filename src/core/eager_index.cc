#include "core/eager_index.h"

#include <algorithm>
#include <map>

#include "core/candidate_sink.h"
#include "core/posting_list.h"
#include "util/key_set.h"
#include "util/perf_context.h"

namespace leveldbpp {

Status EagerIndex::Open(std::string attribute, DBImpl* primary,
                        const Options& base, const std::string& path,
                        std::unique_ptr<SecondaryIndex>* out) {
  std::unique_ptr<EagerIndex> index(
      new EagerIndex(std::move(attribute), primary));
  Status s = index->OpenIndexTable(base, path, /*merger=*/nullptr);
  if (s.ok()) {
    *out = std::move(index);
  }
  return s;
}

Status EagerIndex::OnPut(const Slice& primary_key, const Slice& attr_value,
                         SequenceNumber seq) {
  // Read-modify-write: fetch the current list, prepend, write back. The
  // write invalidates all older copies in lower levels.
  std::vector<PostingEntry> entries;
  std::string existing;
  Status s = index_db_->Get(ReadOptions(), attr_value, &existing);
  if (s.ok()) {
    PostingList::Parse(Slice(existing), &entries);
  } else if (!s.IsNotFound()) {
    return s;
  }
  // Drop any previous occurrence of the key (an update re-inserting the
  // same attribute value), then splice the new entry into seq-descending
  // position. On the write path the new seq is the store's newest so this
  // is a front insert, but RebuildIndex replays records in KEY order and
  // Lookup's top-k early break relies on the descending invariant.
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [&](const PostingEntry& e) {
                                 return Slice(e.primary_key) == primary_key;
                               }),
                entries.end());
  auto pos = std::find_if(entries.begin(), entries.end(),
                          [&](const PostingEntry& e) { return e.seq < seq; });
  entries.insert(pos, PostingEntry(primary_key.ToString(), seq, false));
  std::string serialized;
  PostingList::Serialize(entries, &serialized);
  return index_db_->Put(WriteOptions(), attr_value, Slice(serialized));
}

Status EagerIndex::OnDelete(const Slice& primary_key, const Slice& attr_value,
                            SequenceNumber /*seq*/) {
  // Same read-update-write process (paper Section 4.1.1); the key is simply
  // removed from the list.
  std::vector<PostingEntry> entries;
  std::string existing;
  Status s = index_db_->Get(ReadOptions(), attr_value, &existing);
  if (s.IsNotFound()) return Status::OK();
  if (!s.ok()) return s;
  PostingList::Parse(Slice(existing), &entries);
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [&](const PostingEntry& e) {
                                 return Slice(e.primary_key) == primary_key;
                               }),
                entries.end());
  if (entries.empty()) {
    return index_db_->Delete(WriteOptions(), attr_value);
  }
  std::string serialized;
  PostingList::Serialize(entries, &serialized);
  return index_db_->Put(WriteOptions(), attr_value, Slice(serialized));
}

Status EagerIndex::BulkLoad(const std::vector<IndexOp>& entries) {
  if (index_db_->LastSequence() != 0) {
    // Non-empty table: an ingested list would shadow every existing
    // posting for its attribute value. Replay through the RMW path.
    return SecondaryIndex::BulkLoad(entries);
  }
  // Empty table: the batch IS the complete index. Build one seq-descending
  // posting list per attribute value and splice them in as SSTables.
  std::map<std::string, std::vector<PostingEntry>> lists;
  for (const IndexOp& op : entries) {
    lists[op.attr_value].emplace_back(op.primary_key, op.seq, false);
  }
  auto it = lists.begin();
  IngestFeed feed = [&](std::string* key, std::string* value) {
    if (it == lists.end()) return false;
    key->assign(it->first);
    std::vector<PostingEntry>& list = it->second;
    std::sort(list.begin(), list.end(),
              [](const PostingEntry& a, const PostingEntry& b) {
                return a.seq > b.seq;
              });
    value->clear();
    PostingList::Serialize(list, value);
    ++it;
    return true;
  };
  return index_db_->IngestExternalFiles(feed, nullptr);
}

Status EagerIndex::Lookup(const Slice& value, size_t k,
                          std::vector<QueryResult>* results) {
  results->clear();
  // Algorithm 2: one read retrieves the full, time-ordered list.
  std::string list_data;
  Status s = index_db_->Get(ReadOptions(), value, &list_data);
  if (s.IsNotFound()) return Status::OK();
  if (!s.ok()) return s;
  std::vector<PostingEntry> entries;
  if (!PostingList::Parse(Slice(list_data), &entries)) {
    return Status::Corruption("bad posting list for ", value);
  }
  // Counted at parse time (entries in the list this query read), so the
  // value is identical at every read_parallelism setting.
  PerfCounterAdd(&PerfContext::posting_entries_scanned, entries.size());
  CandidateSink sink(primary_, k, attribute_, value, value);
  for (const PostingEntry& e : entries) {
    // Stop on the STORED seq bound, not on a full heap: a crash-stale entry
    // (written index-first, primary never committed) can validate at a
    // lower primary seq than it stored, so a full heap may still be
    // displaced by later entries — but never by one whose stored seq is
    // already at or below the heap floor.
    if (!sink.WouldAdmit(e.seq)) break;  // List is stored-seq-descending
    if (e.deleted) continue;
    s = sink.Offer(Slice(e.primary_key), e.seq);
    if (!s.ok()) return s;
  }
  return sink.Finish(results);
}

Status EagerIndex::RangeLookup(const Slice& lo, const Slice& hi, size_t k,
                               std::vector<QueryResult>* results) {
  results->clear();
  // Range scan over the index table's (secondary) keys. Each list is
  // seq-descending, but the lists interleave in time, so every in-range
  // list's live entries are gathered first and validated as one
  // newest-first batch: the heap floor then rises past the whole window's
  // older entries instead of restarting at each list.
  std::vector<PostingCandidate> candidates;
  std::unique_ptr<Iterator> it(index_db_->NewIterator(ReadOptions()));
  for (it->Seek(lo); it->Valid() && it->key().compare(hi) <= 0; it->Next()) {
    std::vector<PostingEntry> entries;
    if (!PostingList::Parse(it->value(), &entries)) continue;
    PerfCounterAdd(&PerfContext::posting_entries_scanned, entries.size());
    for (PostingEntry& e : entries) {
      if (!e.deleted) candidates.push_back({std::move(e.primary_key), e.seq});
    }
  }
  if (!it->status().ok()) return it->status();
  CandidateSink sink(primary_, k, attribute_, lo, hi);
  Status s = sink.OfferNewestFirst(&candidates);
  if (!s.ok()) return s;
  return sink.Finish(results);
}

Status EagerIndex::EnumeratePostings(const Slice& value,
                                     std::vector<PostingCandidate>* out) {
  out->clear();
  // The newest list is complete and carries no deletion markers (OnDelete
  // removes keys outright): one read IS the enumeration.
  std::string list_data;
  Status s = index_db_->Get(ReadOptions(), value, &list_data);
  if (s.IsNotFound()) return Status::OK();
  if (!s.ok()) return s;
  std::vector<PostingEntry> entries;
  if (!PostingList::Parse(Slice(list_data), &entries)) {
    return Status::Corruption("bad posting list for ", value);
  }
  PerfCounterAdd(&PerfContext::posting_entries_scanned, entries.size());
  out->reserve(entries.size());
  KeySet seen;
  for (PostingEntry& e : entries) {
    if (e.deleted) continue;
    if (!seen.Insert(Slice(e.primary_key))) continue;
    out->push_back({std::move(e.primary_key), e.seq});
  }
  return Status::OK();
}

}  // namespace leveldbpp
