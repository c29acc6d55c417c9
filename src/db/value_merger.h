// ValueMerger: the merge hook of a DB whose values are fragments.
//
// An ordinary LSM compaction keeps only the newest version of each user key.
// The Stand-Alone LAZY index table instead needs duplicate keys *combined*:
// each PUT appended a posting-list fragment, and the fragments must be
// merged (applying per-entry deletion markers) rather than the old ones
// discarded. Installing a ValueMerger on a DB gives it this merge-on-collision
// behaviour, mirroring Cassandra's index-table merge described in the paper
// (Section 4.1.2, Figure 5).
//
// CONTRACT:
//   * Where merges happen. A write never merges: the memtable keeps each
//     fragment as a version of its own, and the WAL logs it as written.
//     Flush (BuildTable) and compaction write each key as ONE merged entry
//     at its newest version's sequence, through the same MergeRun
//     (builder.h). Reads merge a memtable's versions of a key themselves
//     (DBImpl::GetFragments hands them over per memtable), so every
//     residence — memtable, L0 file, level — shows one fragment per key.
//   * Snapshots. Flush and compaction merge every version of a key,
//     including versions above the oldest live snapshot; a snapshot read
//     of a merger DB may therefore see fragments written after it. No
//     caller takes a snapshot of an index DB.
//   * Deletes. A DB with a ValueMerger does not support whole-key Delete()
//     (rejected with NotSupported). Deletions must be expressed inside the
//     merged values (e.g. posting-list deletion markers) so that the merge
//     function alone defines visibility.
//   * A merge of a single value that is not at the bottom must return that
//     value unchanged: MergeRun writes a lone version as it is.

#ifndef LEVELDBPP_DB_VALUE_MERGER_H_
#define LEVELDBPP_DB_VALUE_MERGER_H_

#include <string>
#include <vector>

#include "util/slice.h"

namespace leveldbpp {

class ValueMerger {
 public:
  virtual ~ValueMerger() = default;

  /// Name recorded for debugging.
  virtual const char* Name() const = 0;

  /// Merge all versions of `key`'s value, newest first, into *result.
  /// `at_bottom` is true when the merge output lands in the lowest level
  /// that can contain the key — per-entry deletion markers may then be
  /// dropped for good. Return false to drop the key entirely (e.g. the
  /// merged posting list became empty).
  virtual bool Merge(const Slice& key,
                     const std::vector<Slice>& values_newest_first,
                     bool at_bottom, std::string* result) const = 0;
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_DB_VALUE_MERGER_H_
