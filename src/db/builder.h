// BuildTable: materialize a memtable's contents as an L0 SSTable.
// MergeRun: how flush and compaction write a ValueMerger DB's keys.

#ifndef LEVELDBPP_DB_BUILDER_H_
#define LEVELDBPP_DB_BUILDER_H_

#include <functional>
#include <string>
#include <vector>

#include "db/dbformat.h"
#include "db/options.h"
#include "util/status.h"

namespace leveldbpp {

struct FileMetaData;
class Env;
class Iterator;
class TableCache;
class ValueMerger;

/// Build a table file from the contents of *iter (internal keys, sorted).
/// The generated file will be named according to meta->number. On success,
/// the rest of *meta is filled with metadata about the generated table
/// (including the file-level secondary zone ranges). If no data is present
/// in *iter, meta->file_size is set to zero and no file is produced.
///
/// Superseded versions of a user key are dropped only when the newer entry
/// shadowing them is visible to every live snapshot — the same rule the
/// compaction merge applies. `smallest_snapshot` is the oldest live snapshot
/// sequence (or the DB's last sequence when none are live, which reproduces
/// plain newest-wins collapsing); pass kMaxSequenceNumber to collapse
/// unconditionally (repair and ingest, where no snapshot can reference the
/// input). A ValueMerger DB instead writes each key through MergeRun, as
/// compaction does: its memtable holds one version per write, and the table
/// gets one merged fragment per key (value_merger.h).
class InternalKeyComparator;

/// `options` must be the DB's internalized options (comparator/filter policy
/// already wrapped for internal keys); `icmp` is used to recover user keys
/// for version de-duplication.
Status BuildTable(const std::string& dbname, Env* env, const Options& options,
                  const InternalKeyComparator& icmp, TableCache* table_cache,
                  Iterator* iter, SequenceNumber smallest_snapshot,
                  FileMetaData* meta);

/// One user key's versions in a ValueMerger DB, fed newest first (internal
/// key order) and written out as the key's single merged entry: every value
/// above the first tombstone merged into one fragment at the newest
/// version's sequence, then the tombstone itself unless the output lands at
/// the key's base level. Flush (BuildTable) and compaction both write merger
/// tables through it.
class MergeRun {
 public:
  /// Receives each output entry, in internal-key order.
  using EmitFn =
      std::function<Status(const Slice& internal_key, const Slice& value)>;

  /// `is_base_level(user_key)`, when given, is asked once per key in key
  /// order: true when no level below the output can hold the key, so the
  /// merge may drop deletion markers and the tombstone. Flush passes none.
  MergeRun(const ValueMerger* merger, const Comparator* ucmp,
           std::function<bool(const Slice&)> is_base_level, EmitFn emit);

  /// Feed the next entry; a new user key first emits the previous key's.
  Status Add(const ParsedInternalKey& ikey, const Slice& value);

  /// Emit the last key's entry.
  Status Finish();

 private:
  const ValueMerger* const merger_;
  const Comparator* const ucmp_;
  const std::function<bool(const Slice&)> is_base_level_;
  const EmitFn emit_;

  bool active_ = false;
  std::string user_key_;
  SequenceNumber newest_seq_ = 0;
  std::vector<std::string> values_;  // Values above the tombstone, newest first
  bool saw_tombstone_ = false;
  SequenceNumber tombstone_seq_ = 0;
  std::string ikey_, merged_;  // Output buffers, reused key to key
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_DB_BUILDER_H_
