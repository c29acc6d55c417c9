// Version / VersionSet: the in-memory representation of the LSM file layout
// (which SSTables live at which level), its MANIFEST persistence, and
// compaction picking.
//
// A Version is an immutable snapshot of the file layout; readers ref() the
// version they use so compactions can't delete files under them. The
// VersionSet owns the current version, hands out file numbers, tracks the
// last sequence number, and picks compactions using LevelDB's rules:
// level-0 compacts by file count, level-i by total bytes, with a per-level
// round-robin compaction pointer (which is exactly why the paper's Composite
// index cannot rely on cross-level time ordering).

#ifndef LEVELDBPP_DB_VERSION_SET_H_
#define LEVELDBPP_DB_VERSION_SET_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "db/dbformat.h"
#include "db/options.h"
#include "db/table_cache.h"
#include "db/version_edit.h"
#include "wal/log_writer.h"

namespace leveldbpp {

class Compaction;
class Version;
class VersionSet;

/// Return the smallest index i such that files[i]->largest >= key.
/// Return files.size() if there is no such file.
/// REQUIRES: files is a sorted, disjoint list of files (level > 0).
int FindFile(const InternalKeyComparator& icmp,
             const std::vector<FileMetaData*>& files, const Slice& key);

/// Returns true iff some file in `files` overlaps the user key range
/// [*smallest_user_key, *largest_user_key] (nullptr = unbounded).
bool SomeFileOverlapsRange(const InternalKeyComparator& icmp,
                           bool disjoint_sorted_files,
                           const std::vector<FileMetaData*>& files,
                           const Slice* smallest_user_key,
                           const Slice* largest_user_key);

/// The outcome of probing one table file for one user key: the engine's
/// only Table::InternalGet saver. Version::WalkResidences settles every
/// point read's disk probes with it, MultiGet's included.
struct KeyProbe {
  enum State { kNotFound, kFound, kDeleted, kCorrupt };

  KeyProbe(const Comparator* ucmp, const Slice& user_key)
      : ucmp(ucmp), user_key(user_key) {}

  /// Table::InternalGet callback: records the entry at or after the lookup
  /// key when it belongs to user_key (kCorrupt if it does not parse).
  static void Save(void* arg, const Slice& ikey, const Slice& value);

  /// The resolution rule every point read applies, residence by residence
  /// newest first. Returns true once this probe settles the key, with *s
  /// OK (a value), NotFound (a deletion) or the error: an I/O error, a
  /// Corruption with paranoid checks on, or an unparseable stored key
  /// (Corruption in every mode). Returns false to keep walking older
  /// residences: the key is absent here, or the table hit Corruption with
  /// paranoid checks off (the quarantine fallthrough).
  bool Settles(bool paranoid, Status* s) const;

  bool hit() const {
    return io.ok() && (state == kFound || state == kDeleted);
  }

  const Comparator* ucmp;
  Slice user_key;
  State state = kNotFound;
  SequenceNumber seq = 0;
  std::string value;  // Set for kFound
  Status io;          // Status of the table open / block reads themselves
};

class Version {
 public:
  /// Append to *iters a sequence of iterators that will together yield the
  /// contents of this Version when merged (newer sources first).
  void AddIterators(const ReadOptions&, std::vector<Iterator*>* iters);

  /// Point lookup: the newest version of k's user key visible at k's
  /// sequence (WalkResidences, stopping at the first hit). If it is a
  /// value, stores it; if it is a deletion, returns NotFound.
  /// `seq_out`/`level_out` optionally receive the sequence number and
  /// level of the winning entry.
  /// Tables are probed through `pins`.
  Status Get(const ReadOptions&, const LookupKey& key, TablePins* pins,
             std::string* val, SequenceNumber* seq_out = nullptr,
             int* level_out = nullptr);

  /// The one residence walk behind every point read of this version:
  /// visits the files that may hold k's user key, newest residence first
  /// (at level 0 every file whose range covers it, newest first; at each
  /// level 1 .. end_level - 1 the one file FindFile lands on), probes each
  /// through `pins` (its tables, and its BlockMemo for the data block) into
  /// a KeyProbe. A hit (a value or a deletion) goes to on_hit(level,
  /// probe), which returns false to stop the walk; any other probe is
  /// settled with KeyProbe::Settles, and a settling error ends the walk and
  /// is returned. The walk allocates nothing.
  /// `skip(level, file)`, when given, is asked first and returning true
  /// passes over that file without probing it (GetLite's metadata-only
  /// filter, which reads the table through the same `pins`).
  Status WalkResidences(
      const ReadOptions&, const LookupKey& k, int end_level, TablePins* pins,
      const std::function<bool(int, FileMetaData*)>& skip,
      const std::function<bool(int, KeyProbe&)>& on_hit);

  void Ref();
  void Unref();

  int NumFiles(int level) const {
    return static_cast<int>(files_[level].size());
  }

  const std::vector<FileMetaData*>& files(int level) const {
    return files_[level];
  }

  /// The level-0 files newest first (descending file number): the order
  /// every read visits them in.
  const std::vector<FileMetaData*>& level0_newest_first() const {
    return level0_newest_first_;
  }

  int NumLevels() const { return static_cast<int>(files_.size()); }

  /// Store in *inputs all files in `level` that overlap [begin, end]
  /// (nullptr = unbounded). For level 0, expands the range to cover
  /// transitively overlapping files.
  void GetOverlappingInputs(int level, const InternalKey* begin,
                            const InternalKey* end,
                            std::vector<FileMetaData*>* inputs);

  /// Returns true iff some file in the specified level overlaps some part
  /// of [*smallest_user_key, *largest_user_key].
  bool OverlapInLevel(int level, const Slice* smallest_user_key,
                      const Slice* largest_user_key);

  std::string DebugString() const;

 private:
  friend class Compaction;
  friend class VersionSet;

  explicit Version(VersionSet* vset);
  ~Version();

  Version(const Version&) = delete;
  Version& operator=(const Version&) = delete;

  VersionSet* vset_;  // VersionSet to which this Version belongs
  Version* next_;     // Next version in linked list
  Version* prev_;     // Previous version in linked list
  int refs_;          // Number of live refs to this version

  // List of files per level
  std::vector<std::vector<FileMetaData*>> files_;
  // files_[0] newest first, set with files_ (Builder::SaveTo)
  std::vector<FileMetaData*> level0_newest_first_;

  // Level that should be compacted next and its score (>= 1 means
  // compaction needed). Computed by VersionSet::Finalize().
  double compaction_score_;
  int compaction_level_;
};

class VersionSet {
 public:
  VersionSet(const std::string& dbname, const Options* options,
             TableCache* table_cache, const InternalKeyComparator*);
  VersionSet(const VersionSet&) = delete;
  VersionSet& operator=(const VersionSet&) = delete;

  ~VersionSet();

  /// Apply *edit to the current version to form a new descriptor that is
  /// both saved to the MANIFEST and installed as the new current version.
  Status LogAndApply(VersionEdit* edit);

  /// Recover the last saved descriptor from persistent storage.
  Status Recover();

  Version* current() const { return current_; }

  uint64_t ManifestFileNumber() const { return manifest_file_number_; }

  /// Allocate and return a new file number.
  uint64_t NewFileNumber() { return next_file_number_++; }

  /// Arrange to reuse `file_number` unless a newer number has already been
  /// allocated. REQUIRES: it was obtained from NewFileNumber().
  void ReuseFileNumber(uint64_t file_number) {
    if (next_file_number_ == file_number + 1) {
      next_file_number_ = file_number;
    }
  }

  int NumLevelFiles(int level) const;
  int64_t NumLevelBytes(int level) const;

  // last_sequence_ is atomic so readers (snapshot selection, the index
  // layer's LastSequence()) can load it without the DB mutex; all stores
  // still happen under the DB mutex, preserving monotonicity.
  SequenceNumber LastSequence() const {
    return last_sequence_.load(std::memory_order_acquire);
  }
  void SetLastSequence(SequenceNumber s) {
    assert(s >= last_sequence_.load(std::memory_order_relaxed));
    last_sequence_.store(s, std::memory_order_release);
  }

  uint64_t LogNumber() const { return log_number_; }

  /// Pick a level and inputs for a new compaction, or nullptr if none is
  /// needed. Caller owns the result.
  Compaction* PickCompaction();

  /// Return a compaction covering [begin,end] in the specified level, or
  /// nullptr if that level has nothing overlapping. Caller owns the result.
  Compaction* CompactRange(int level, const InternalKey* begin,
                           const InternalKey* end);

  /// True iff some level is over its target and needs compaction.
  bool NeedsCompaction() const {
    return current_->compaction_score_ >= 1;
  }

  /// Add all files listed in any live version to *live.
  void AddLiveFiles(std::set<uint64_t>* live);

  /// Create an iterator reading the merged contents of a compaction's
  /// inputs. Caller owns the result.
  Iterator* MakeInputIterator(Compaction* c);

  const InternalKeyComparator& icmp() const { return icmp_; }
  TableCache* table_cache() const { return table_cache_; }
  const Options* options() const { return options_; }

  /// One-line summary of files per level, e.g. "files[ 2 4 0 0 0 0 0 ]".
  std::string LevelSummary() const;

  /// Max bytes allowed at `level` before compaction triggers.
  static double MaxBytesForLevel(const Options& options, int level);

 private:
  class Builder;

  friend class Compaction;
  friend class Version;

  void Finalize(Version* v);
  void AppendVersion(Version* v);
  Status WriteSnapshot(log::Writer* log);
  void GetRange(const std::vector<FileMetaData*>& inputs,
                InternalKey* smallest, InternalKey* largest);
  void GetRange2(const std::vector<FileMetaData*>& inputs1,
                 const std::vector<FileMetaData*>& inputs2,
                 InternalKey* smallest, InternalKey* largest);
  void SetupOtherInputs(Compaction* c);

  const std::string dbname_;
  const Options* const options_;
  Env* const env_;
  TableCache* const table_cache_;
  const InternalKeyComparator icmp_;
  uint64_t next_file_number_;
  uint64_t manifest_file_number_;
  std::atomic<SequenceNumber> last_sequence_;
  uint64_t log_number_;

  // Opened lazily
  std::unique_ptr<WritableFile> descriptor_file_;
  std::unique_ptr<log::Writer> descriptor_log_;

  Version dummy_versions_;  // Head of circular doubly-linked list of versions
  Version* current_;        // == dummy_versions_.prev_

  // Per-level key at which the next compaction at that level should start.
  // Either an empty string, or a valid InternalKey. This is LevelDB's
  // round-robin compaction pointer.
  std::vector<std::string> compact_pointer_;
};

/// A Compaction encapsulates information about one compaction.
class Compaction {
 public:
  ~Compaction();

  /// Inputs are taken from "level" and "level+1".
  int level() const { return level_; }

  /// Edit to apply to describe the compaction's output.
  VersionEdit* edit() { return &edit_; }

  /// "which" must be 0 or 1.
  int num_input_files(int which) const {
    return static_cast<int>(inputs_[which].size());
  }
  FileMetaData* input(int which, int i) const { return inputs_[which][i]; }

  uint64_t MaxOutputFileSize() const { return max_output_file_size_; }

  /// True iff the compaction can be implemented by just moving a single
  /// input file to the next level (no merging or splitting).
  bool IsTrivialMove() const;

  /// Add all inputs to this compaction as delete operations to *edit.
  void AddInputDeletions(VersionEdit* edit);

  /// True iff we are positively sure that no data at levels greater than
  /// level+1 contains `user_key` (so tombstones / lazy deletion markers can
  /// be dropped).
  bool IsBaseLevelForKey(const Slice& user_key);

  /// Release the input version (once the compaction is applied).
  void ReleaseInputs();

 private:
  friend class VersionSet;
  friend class Version;

  Compaction(const Options* options, int level);

  int level_;
  uint64_t max_output_file_size_;
  Version* input_version_;
  VersionEdit edit_;

  // Each compaction reads inputs from level_ and level_+1.
  std::vector<FileMetaData*> inputs_[2];

  // State for implementing IsBaseLevelForKey: level_ptrs_ holds indices
  // into input_version_->files_, advanced monotonically since compaction
  // keys are emitted in order.
  std::vector<size_t> level_ptrs_;
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_DB_VERSION_SET_H_
