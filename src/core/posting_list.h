// Posting lists for the Stand-Alone Lazy and Eager indexes.
//
// A posting list maps one secondary-key value to the primary keys carrying
// it, newest first. Following the paper, lists are serialized as "a single
// JSON array"; each entry carries the primary-table sequence number (the
// paper: "we attach a sequence number to each entry in the postings list on
// every write" — this is what makes top-K by recency possible), plus a
// deletion-marker flag used by the Lazy index ("maintains a deletion marker
// which is used during merge in compaction to remove the deleted entry").
//
// Wire format: [["k4",97],["k1",55],["k9",12,1]]  (trailing 1 = deleted)

#ifndef LEVELDBPP_CORE_POSTING_LIST_H_
#define LEVELDBPP_CORE_POSTING_LIST_H_

#include <string>
#include <vector>

#include "db/dbformat.h"
#include "db/value_merger.h"
#include "util/slice.h"

namespace leveldbpp {

struct PostingEntry {
  std::string primary_key;
  SequenceNumber seq = 0;
  bool deleted = false;

  PostingEntry() = default;
  PostingEntry(std::string k, SequenceNumber s, bool d = false)
      : primary_key(std::move(k)), seq(s), deleted(d) {}
};

class PostingList {
 public:
  /// Serialize `entries` (must be sorted by seq descending).
  static void Serialize(const std::vector<PostingEntry>& entries,
                        std::string* out);

  /// Parse a serialized list. Returns false on malformed input.
  static bool Parse(const Slice& data, std::vector<PostingEntry>* out);

  /// Parse `data` and append its entries to *out. On malformed input *out
  /// keeps only its earlier entries and false is returned.
  static bool ParseAppend(const Slice& data, std::vector<PostingEntry>* out);

  /// Merge fragments (each internally seq-descending), newest fragment
  /// first, into one seq-descending list with one entry per primary key
  /// (the newest occurrence wins). When `drop_deletions` is true, deletion
  /// markers are elided from the output (safe only when no older fragments
  /// can exist below).
  static void Merge(const std::vector<std::vector<PostingEntry>>& fragments,
                    bool drop_deletions, std::vector<PostingEntry>* out);

  /// Merge in place: *entries holds the fragments concatenated newest
  /// first, and ends up as Merge's output.
  static void MergeInPlace(std::vector<PostingEntry>* entries,
                           bool drop_deletions);

  /// A reader's merge of one residence's fragment versions, concatenated
  /// newest version first into *entries: puts them in merge order (seq
  /// descending, ties by primary key) with each key's newest occurrence
  /// first. A concatenation already in that order — one writer appends in
  /// seq order — is left as it is and may repeat a key after its newest
  /// occurrence; readers skip repeats, as they already do across
  /// residences. Any other is merged in place (MergeInPlace), keeping
  /// deletion markers.
  static void MergeForRead(std::vector<PostingEntry>* entries);
};

/// ValueMerger installed on the Lazy index table's DB: merges posting-list
/// fragments at flush and compaction exactly as Cassandra's index
/// compaction does.
class PostingListMerger : public ValueMerger {
 public:
  const char* Name() const override { return "leveldbpp.PostingListMerger"; }

  bool Merge(const Slice& key, const std::vector<Slice>& values_newest_first,
             bool at_bottom, std::string* result) const override;

  /// Process-wide instance.
  static const PostingListMerger* Instance();
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_CORE_POSTING_LIST_H_
