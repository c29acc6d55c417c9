#include "core/lazy_index.h"

#include <algorithm>
#include <map>
#include <memory>

#include "core/candidate_sink.h"
#include "core/posting_list.h"
#include "util/key_set.h"
#include "util/perf_context.h"

namespace leveldbpp {

namespace {

// One residence's fragment of a key: its versions parsed (a malformed one
// is skipped) and merged in read order.
void ParseFragment(const std::vector<Slice>& versions,
                   std::vector<PostingEntry>* entries) {
  entries->clear();
  for (const Slice& v : versions) PostingList::ParseAppend(v, entries);
  if (versions.size() > 1) PostingList::MergeForRead(entries);
}

}  // namespace

Status LazyIndex::Open(std::string attribute, DBImpl* primary,
                       const Options& base, const std::string& path,
                       std::unique_ptr<SecondaryIndex>* out) {
  std::unique_ptr<LazyIndex> index(
      new LazyIndex(std::move(attribute), primary));
  Status s =
      index->OpenIndexTable(base, path, PostingListMerger::Instance());
  if (s.ok()) {
    *out = std::move(index);
  }
  return s;
}

Status LazyIndex::OnPut(const Slice& primary_key, const Slice& attr_value,
                        SequenceNumber seq) {
  // Append-only: write a one-entry fragment; no read of the existing list.
  // The memtable keeps it as a version of its own; reads merge a memtable's
  // versions, flush merges them into one fragment per table, and
  // compaction merges across levels.
  std::string fragment;
  PostingList::Serialize({PostingEntry(primary_key.ToString(), seq, false)},
                         &fragment);
  return index_db_->Put(WriteOptions(), attr_value, Slice(fragment));
}

Status LazyIndex::OnDelete(const Slice& primary_key, const Slice& attr_value,
                           SequenceNumber seq) {
  // Append a deletion marker; compaction removes the pair once the marker
  // meets the entry it shadows (and drops the marker at the bottom level).
  std::string fragment;
  PostingList::Serialize({PostingEntry(primary_key.ToString(), seq, true)},
                         &fragment);
  return index_db_->Put(WriteOptions(), attr_value, Slice(fragment));
}

Status LazyIndex::BulkLoad(const std::vector<IndexOp>& entries) {
  // Each touched attribute's COMPLETE posting list becomes one fragment,
  // spliced in as SSTables with no WAL and no per-op overhead. Into an
  // empty table that is just the new batch; into a non-empty one the new
  // entries are merged with every existing fragment of the attribute
  // (deletion markers kept — they still shadow occurrences in fragments
  // below; whole-list tombstones stop the walk and stay in place, still
  // guarding everything older). The merged fragment is forced to level 0,
  // where its fresh file number makes it the NEWEST residence: it must
  // shadow the fragments it merged for the level-by-level scan's early
  // stop to stay sound, and natural ingest placement would instead sink
  // it below them.
  const bool empty_table = index_db_->LastSequence() == 0;
  std::map<std::string, std::vector<PostingEntry>> lists;
  for (const IndexOp& op : entries) {
    lists[op.attr_value].emplace_back(op.primary_key, op.seq, false);
  }
  Status s;
  if (!empty_table) {
    for (auto& [attr_value, list] : lists) {
      KeySet have;
      for (const PostingEntry& e : list) {
        have.Insert(Slice(e.primary_key));
      }
      s = index_db_->GetFragments(
          ReadOptions(), Slice(attr_value),
          [&](int /*rank*/, SequenceNumber /*fseq*/, bool frag_deleted,
              const std::vector<Slice>& versions) {
            if (frag_deleted) return false;  // Tombstone guards the rest
            std::vector<PostingEntry> existing;
            ParseFragment(versions, &existing);
            for (PostingEntry& e : existing) {
              if (have.Insert(Slice(e.primary_key))) {
                list.push_back(std::move(e));
              }
            }
            return true;
          });
      if (!s.ok()) return s;
    }
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
  return index_db_->IngestExternalFiles(feed, nullptr,
                                        /*force_level0=*/!empty_table);
}

Status LazyIndex::Lookup(const Slice& value, size_t k,
                         std::vector<QueryResult>* results) {
  results->clear();
  // Algorithm 3: walk the fragments newest-level-first; a fragment's
  // entries are all newer than every fragment below it, so the scan stops
  // at the first level boundary where the heap is full.
  CandidateSink sink(primary_, k, attribute_, value, value);
  // Shadowing: newer fragments win per key. It holds every key the sink
  // is offered, so the sink's own seen-set is skipped (OfferDistinct).
  KeySet seen;
  std::vector<PostingEntry> entries;
  Status validate_status;
  Status s = index_db_->GetFragments(
      ReadOptions(), value,
      [&](int /*rank*/, SequenceNumber /*fseq*/, bool frag_deleted,
          const std::vector<Slice>& versions) {
        if (frag_deleted) {
          return false;  // Whole-list tombstone shadows everything older.
        }
        ParseFragment(versions, &entries);
        // Counted at parse time (entries in the lists this query read), so
        // the value is identical at every read_parallelism setting.
        PerfCounterAdd(&PerfContext::posting_entries_scanned, entries.size());
        for (const PostingEntry& e : entries) {
          if (!seen.Insert(Slice(e.primary_key))) continue;
          if (e.deleted) continue;  // Marker shadows older occurrences
          if (!sink.WouldAdmit(e.seq)) continue;
          validate_status = sink.OfferDistinct(Slice(e.primary_key), e.seq);
          if (!validate_status.ok()) return false;
        }
        validate_status = sink.Flush();
        if (!validate_status.ok()) return false;
        // Stop descending once top-K is complete — unless a crash-stale
        // admission (a result validated below its stored seq) broke the
        // levels-are-older invariant, after which a full heap no longer
        // proves that older fragments can't displace anything.
        return !sink.Full() || sink.stale_admitted();
      });
  if (!s.ok()) return s;
  if (!validate_status.ok()) return validate_status;
  return sink.Finish(results);
}

Status LazyIndex::RangeLookup(const Slice& lo, const Slice& hi, size_t k,
                              std::vector<QueryResult>* results) {
  results->clear();
  // Section 4.1.2: the primary-key range iterator is forced to scan LEVEL
  // BY LEVEL (a normal merged iterator would hide lower-level fragments of
  // a key already seen above). Each level contributes the fragments of
  // every secondary key in [lo, hi]; per-key shadowing tracks which
  // (secondary key, primary key) pairs newer levels already decided.
  CandidateSink sink(primary_, k, attribute_, lo, hi);
  KeySet seen;  // EncodeKeyPair(attr val, key)
  std::string pair;
  // A record updated between two secondary keys both inside [lo, hi] has
  // live-looking entries under each; only one result may be emitted. The
  // validity check resolves to the same current record either way, so the
  // first offered occurrence decides (the sink validates a key once).
  DBImpl::LevelIterators levels;
  Status s = index_db_->NewLevelIterators(ReadOptions(), &levels);
  if (!s.ok()) return s;

  std::string seek_key;
  AppendInternalKey(&seek_key, ParsedInternalKey(lo, kMaxSequenceNumber,
                                                 kValueTypeForSeek));
  std::string attr;
  std::vector<PostingEntry> entries;
  for (Iterator* it : levels.iters) {
    it->Seek(Slice(seek_key));
    while (it->Valid()) {
      ParsedInternalKey ikey;
      if (!ParseInternalKey(it->key(), &ikey)) {
        it->Next();
        continue;
      }
      if (ikey.user_key.compare(hi) > 0) break;
      // Union the bucket's versions of this secondary key, newest first,
      // down to the first tombstone (a memtable keeps one version per
      // write): they are the bucket's one fragment of the key.
      attr.assign(ikey.user_key.data(), ikey.user_key.size());
      // A whole list tombstoned by a newer bucket is passed over.
      EncodeKeyPair(Slice(attr), Slice(), &pair);
      const bool shadowed = seen.Contains(Slice(pair));
      entries.clear();
      size_t versions = 0;
      bool tombstone = false;
      for (; it->Valid(); it->Next()) {
        if (!ParseInternalKey(it->key(), &ikey)) continue;
        if (ikey.user_key != Slice(attr)) break;
        if (shadowed || tombstone) continue;
        if (ikey.type != kTypeValue) {
          tombstone = true;
        } else if (PostingList::ParseAppend(it->value(), &entries)) {
          versions++;
        }
      }
      if (shadowed) continue;
      if (versions > 1) PostingList::MergeForRead(&entries);
      PerfCounterAdd(&PerfContext::posting_entries_scanned, entries.size());
      for (const PostingEntry& e : entries) {
        EncodeKeyPair(Slice(attr), Slice(e.primary_key), &pair);
        if (!seen.Insert(Slice(pair))) continue;
        if (e.deleted) continue;
        if (!sink.WouldAdmit(e.seq)) continue;
        s = sink.Offer(Slice(e.primary_key), e.seq);
        if (!s.ok()) return s;
      }
      if (tombstone) {
        // A whole-list tombstone shadows every pair of this secondary key
        // in older buckets: recorded as the sentinel primary key "".
        EncodeKeyPair(Slice(attr), Slice(), &pair);
        seen.Insert(Slice(pair));
      }
    }
    if (!it->status().ok()) return it->status();
    s = sink.Flush();
    if (!s.ok()) return s;
    // Level boundary: lower levels are older — unless a crash-stale
    // admission broke that invariant (see Lookup).
    if (sink.Full() && !sink.stale_admitted()) break;
  }
  return sink.Finish(results);
}

Status LazyIndex::EnumeratePostings(const Slice& value,
                                    std::vector<PostingCandidate>* out) {
  out->clear();
  // Same fragment walk as Lookup, minus top-K pruning and validation: the
  // newest-first order plus the seen set resolve shadowing and deletion
  // markers, leaving exactly the live (unvalidated) posting set.
  KeySet seen;
  Status s = index_db_->GetFragments(
      ReadOptions(), value,
      [&](int /*rank*/, SequenceNumber /*fseq*/, bool frag_deleted,
          const std::vector<Slice>& versions) {
        if (frag_deleted) return false;  // Tombstone shadows older fragments
        std::vector<PostingEntry> entries;
        ParseFragment(versions, &entries);
        PerfCounterAdd(&PerfContext::posting_entries_scanned, entries.size());
        for (PostingEntry& e : entries) {
          if (!seen.Insert(Slice(e.primary_key))) continue;
          if (e.deleted) continue;
          out->push_back({std::move(e.primary_key), e.seq});
        }
        return true;
      });
  return s;
}

}  // namespace leveldbpp
