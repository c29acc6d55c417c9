// VersionEdit: a delta to the LSM file layout, logged to the MANIFEST.
//
// Extension over stock LevelDB: each new-file record carries the file-level
// zone map (per-attribute min/max) computed when the SSTable was built.
// This is the paper's "global metadata file" of per-SSTable zone maps: the
// embedded RANGELOOKUP can discard whole files from the in-memory file list
// without touching the table at all.

#ifndef LEVELDBPP_DB_VERSION_EDIT_H_
#define LEVELDBPP_DB_VERSION_EDIT_H_

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "db/dbformat.h"
#include "table/zonemap_block.h"

namespace leveldbpp {

class VersionSet;

struct FileMetaData {
  int refs = 0;
  uint64_t number = 0;
  uint64_t file_size = 0;    // File size in bytes
  InternalKey smallest;      // Smallest internal key served by table
  InternalKey largest;       // Largest internal key served by table
  // Newest sequence number stored in the table. The embedded scan's
  // level-boundary termination (Algorithm 5) uses it as an exact recency
  // bound: levels are USUALLY time-ordered, but compaction can push a
  // record below a level still holding older records of other keys, and
  // IngestExternalFiles splices brand-new records at the deepest
  // non-overlapping level. Bounding by the real per-file maximum keeps the
  // early exit sound in both cases.
  SequenceNumber max_seq = 0;
  // File-level zone map, parallel to Options::secondary_attributes.
  std::vector<ZoneRange> zone_ranges;
};

class VersionEdit {
 public:
  VersionEdit() { Clear(); }
  ~VersionEdit() = default;

  void Clear();

  void SetComparatorName(const Slice& name) {
    has_comparator_ = true;
    comparator_ = name.ToString();
  }
  void SetLogNumber(uint64_t num) {
    has_log_number_ = true;
    log_number_ = num;
  }
  void SetNextFile(uint64_t num) {
    has_next_file_number_ = true;
    next_file_number_ = num;
  }
  void SetLastSequence(SequenceNumber seq) {
    has_last_sequence_ = true;
    last_sequence_ = seq;
  }
  void SetCompactPointer(int level, const InternalKey& key) {
    compact_pointers_.push_back(std::make_pair(level, key));
  }

  /// Add the specified file at the specified level.
  void AddFile(int level, const FileMetaData& meta) {
    new_files_.push_back(std::make_pair(level, meta));
  }

  /// Delete the specified file from the specified level.
  void RemoveFile(int level, uint64_t file) {
    deleted_files_.insert(std::make_pair(level, file));
  }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(const Slice& src);

  std::string DebugString() const;

 private:
  friend class VersionSet;

  typedef std::set<std::pair<int, uint64_t>> DeletedFileSet;

  std::string comparator_;
  uint64_t log_number_;
  uint64_t next_file_number_;
  SequenceNumber last_sequence_;
  bool has_comparator_;
  bool has_log_number_;
  bool has_next_file_number_;
  bool has_last_sequence_;

  std::vector<std::pair<int, InternalKey>> compact_pointers_;
  DeletedFileSet deleted_files_;
  std::vector<std::pair<int, FileMetaData>> new_files_;
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_DB_VERSION_EDIT_H_
