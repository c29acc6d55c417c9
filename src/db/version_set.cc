#include "db/version_set.h"

#include <algorithm>
#include <cstdio>

#include "db/filename.h"
#include "table/merger.h"
#include "table/two_level_iterator.h"
#include "util/coding.h"
#include "wal/log_reader.h"

namespace leveldbpp {

double VersionSet::MaxBytesForLevel(const Options& options, int level) {
  // Level 0 is limited by file count, not bytes; level >= 1 grows by
  // kLevelSizeMultiplier (paper/LevelDB: 10x).
  double result = static_cast<double>(options.max_bytes_for_level_base);
  for (int l = 1; l < level; l++) {
    result *= kLevelSizeMultiplier;
  }
  return result;
}

static uint64_t TargetFileSize(const Options* options) {
  return options->max_file_size;
}

Version::Version(VersionSet* vset)
    : vset_(vset),
      next_(this),
      prev_(this),
      refs_(0),
      files_(kNumLevels),
      compaction_score_(-1),
      compaction_level_(-1) {}

Version::~Version() {
  assert(refs_ == 0);

  // Remove from linked list
  prev_->next_ = next_;
  next_->prev_ = prev_;

  // Drop references to files
  for (auto& level_files : files_) {
    for (FileMetaData* f : level_files) {
      assert(f->refs > 0);
      f->refs--;
      if (f->refs <= 0) {
        delete f;
      }
    }
  }
}

void Version::Ref() { ++refs_; }

void Version::Unref() {
  assert(this != &vset_->dummy_versions_);
  assert(refs_ >= 1);
  --refs_;
  if (refs_ == 0) {
    delete this;
  }
}

int FindFile(const InternalKeyComparator& icmp,
             const std::vector<FileMetaData*>& files, const Slice& key) {
  uint32_t left = 0;
  uint32_t right = static_cast<uint32_t>(files.size());
  while (left < right) {
    uint32_t mid = (left + right) / 2;
    const FileMetaData* f = files[mid];
    if (icmp.Compare(f->largest.Encode(), key) < 0) {
      // Key at "mid.largest" is < "target". Therefore all files at or
      // before "mid" are uninteresting.
      left = mid + 1;
    } else {
      // Key at "mid.largest" is >= "target". Therefore all files after
      // "mid" are uninteresting.
      right = mid;
    }
  }
  return static_cast<int>(right);
}

static bool AfterFile(const Comparator* ucmp, const Slice* user_key,
                      const FileMetaData* f) {
  // null user_key occurs before all keys and is therefore never after *f
  return (user_key != nullptr &&
          ucmp->Compare(*user_key, f->largest.user_key()) > 0);
}

static bool BeforeFile(const Comparator* ucmp, const Slice* user_key,
                       const FileMetaData* f) {
  // null user_key occurs after all keys and is therefore never before *f
  return (user_key != nullptr &&
          ucmp->Compare(*user_key, f->smallest.user_key()) < 0);
}

bool SomeFileOverlapsRange(const InternalKeyComparator& icmp,
                           bool disjoint_sorted_files,
                           const std::vector<FileMetaData*>& files,
                           const Slice* smallest_user_key,
                           const Slice* largest_user_key) {
  const Comparator* ucmp = icmp.user_comparator();
  if (!disjoint_sorted_files) {
    // Need to check against all files
    for (FileMetaData* f : files) {
      if (AfterFile(ucmp, smallest_user_key, f) ||
          BeforeFile(ucmp, largest_user_key, f)) {
        // No overlap
      } else {
        return true;  // Overlap
      }
    }
    return false;
  }

  // Binary search over file list
  uint32_t index = 0;
  if (smallest_user_key != nullptr) {
    // Find the earliest possible internal key for smallest_user_key
    InternalKey small_key(*smallest_user_key, kMaxSequenceNumber,
                          kValueTypeForSeek);
    index = static_cast<uint32_t>(FindFile(icmp, files, small_key.Encode()));
  }

  if (index >= files.size()) {
    // Beyond the end of all files
    return false;
  }

  return !BeforeFile(ucmp, largest_user_key, files[index]);
}

namespace {

// An internal iterator. For a given version/level pair, yields information
// about the files in the level. For a given entry, key() is the largest key
// that occurs in the file, and value() is a 16-byte value containing the
// file number and file size.
class LevelFileNumIterator : public Iterator {
 public:
  LevelFileNumIterator(const InternalKeyComparator& icmp,
                       const std::vector<FileMetaData*>* flist)
      : icmp_(icmp), flist_(flist), index_(flist->size()) {}  // Invalid

  bool Valid() const override { return index_ < flist_->size(); }
  void Seek(const Slice& target) override {
    index_ = static_cast<size_t>(FindFile(icmp_, *flist_, target));
  }
  void SeekToFirst() override { index_ = 0; }
  void SeekToLast() override {
    index_ = flist_->empty() ? 0 : flist_->size() - 1;
  }
  void Next() override {
    assert(Valid());
    index_++;
  }
  void Prev() override {
    assert(Valid());
    if (index_ == 0) {
      index_ = flist_->size();  // Marks as invalid
    } else {
      index_--;
    }
  }
  Slice key() const override {
    assert(Valid());
    return (*flist_)[index_]->largest.Encode();
  }
  Slice value() const override {
    assert(Valid());
    EncodeFixed64(value_buf_, (*flist_)[index_]->number);
    EncodeFixed64(value_buf_ + 8, (*flist_)[index_]->file_size);
    return Slice(value_buf_, sizeof(value_buf_));
  }
  Status status() const override { return Status::OK(); }

 private:
  const InternalKeyComparator icmp_;
  const std::vector<FileMetaData*>* const flist_;
  size_t index_;

  // Backing store for value(). Holds the file number and size.
  mutable char value_buf_[16];
};

Iterator* GetFileIterator(void* arg, const ReadOptions& options,
                          const Slice& file_value) {
  TableCache* cache = reinterpret_cast<TableCache*>(arg);
  if (file_value.size() != 16) {
    return NewErrorIterator(
        Status::Corruption("FileReader invoked with unexpected value"));
  }
  return cache->NewIterator(options, DecodeFixed64(file_value.data()),
                            DecodeFixed64(file_value.data() + 8));
}

}  // namespace

void Version::AddIterators(const ReadOptions& options,
                           std::vector<Iterator*>* iters) {
  // Merge all level zero files together since they may overlap; newest
  // (highest file number) first so ties resolve toward newer data.
  for (FileMetaData* f : level0_newest_first_) {
    iters->push_back(
        vset_->table_cache_->NewIterator(options, f->number, f->file_size));
  }

  // For levels > 0, use a concatenating iterator that sequentially walks
  // through the non-overlapping files in the level, opening them lazily.
  for (int level = 1; level < NumLevels(); level++) {
    if (!files_[level].empty()) {
      iters->push_back(NewTwoLevelIterator(
          new LevelFileNumIterator(vset_->icmp_, &files_[level]),
          &GetFileIterator, vset_->table_cache_, options));
    }
  }
}

void KeyProbe::Save(void* arg, const Slice& ikey, const Slice& v) {
  KeyProbe* p = reinterpret_cast<KeyProbe*>(arg);
  ParsedInternalKey parsed;
  if (!ParseInternalKey(ikey, &parsed)) {
    p->state = kCorrupt;
  } else if (p->ucmp->Compare(parsed.user_key, p->user_key) == 0) {
    p->state = (parsed.type == kTypeValue) ? kFound : kDeleted;
    p->seq = parsed.sequence;
    if (p->state == kFound) p->value.assign(v.data(), v.size());
  }
}

bool KeyProbe::Settles(bool paranoid, Status* s) const {
  if (!io.ok()) {
    // Quarantine fallthrough: a table whose open (footer/index) fails its
    // checks is unreadable, but older residences may still hold the key.
    // Skip it in non-paranoid mode — block-level damage inside a readable
    // table took the same fallthrough inside InternalGet.
    if (io.IsCorruption() && !paranoid) return false;
    *s = io;
    return true;
  }
  switch (state) {
    case kNotFound:
      return false;
    case kFound:
      *s = Status::OK();
      return true;
    case kDeleted:
      *s = Status::NotFound(Slice());
      return true;
    case kCorrupt:
      *s = Status::Corruption("corrupted key for ", user_key);
      return true;
  }
  return false;
}

Status Version::WalkResidences(
    const ReadOptions& options, const LookupKey& k, int end_level,
    TablePins* pins, const std::function<bool(int, FileMetaData*)>& skip,
    const std::function<bool(int, KeyProbe&)>& on_hit) {
  const Comparator* ucmp = vset_->icmp_.user_comparator();
  const bool paranoid = vset_->options_->paranoid_checks;
  const Slice user_key = k.user_key();
  // Probes one file; true once the walk is over, with its status in *s.
  auto visit = [&](int level, FileMetaData* f, Status* s) {
    if (skip && skip(level, f)) return false;
    KeyProbe probe(ucmp, user_key);
    Table* t = nullptr;
    probe.io = pins->Find(f->number, f->file_size, &t);
    if (probe.io.ok()) {
      probe.io = t->InternalGet(options, k.internal_key(), pins->memo(),
                                &probe, &KeyProbe::Save);
    }
    // A hit goes straight to on_hit: Settles would only build the status
    // (OK, or NotFound for a deletion) that on_hit decides for itself.
    if (probe.hit()) return !on_hit(level, probe);
    return probe.Settles(paranoid, s);
  };
  Status s;
  end_level = std::min(end_level, NumLevels());
  if (end_level > 0) {
    // Level-0 files may overlap each other: every file whose range covers
    // the key, newest first.
    for (FileMetaData* f : level0_newest_first_) {
      if (ucmp->Compare(user_key, f->smallest.user_key()) >= 0 &&
          ucmp->Compare(user_key, f->largest.user_key()) <= 0 &&
          visit(0, f, &s)) {
        return s;
      }
    }
  }
  for (int level = 1; level < end_level; level++) {
    // The earliest file whose largest key >= the key, if it covers it.
    const std::vector<FileMetaData*>& files = files_[level];
    const size_t index = FindFile(vset_->icmp_, files, k.internal_key());
    if (index < files.size() &&
        ucmp->Compare(user_key, files[index]->smallest.user_key()) >= 0 &&
        visit(level, files[index], &s)) {
      return s;
    }
  }
  return Status::OK();
}

Status Version::Get(const ReadOptions& options, const LookupKey& k,
                    TablePins* pins, std::string* value,
                    SequenceNumber* seq_out, int* level_out) {
  // The outputs travel behind one pointer, so the std::function holds the
  // callback inline instead of allocating for it; and NotFound is built
  // only once the walk has ended without a value.
  struct Out {
    std::string* value;
    SequenceNumber* seq;
    int* level;
    bool found;
  } out{value, seq_out, level_out, false};
  Status s = WalkResidences(options, k, NumLevels(), pins, nullptr,
                            [&out](int level, KeyProbe& probe) {
                              if (probe.state == KeyProbe::kFound) {
                                out.value->swap(probe.value);
                                if (out.seq != nullptr) *out.seq = probe.seq;
                                if (out.level != nullptr) *out.level = level;
                                out.found = true;
                              }
                              return false;
                            });
  if (!s.ok()) return s;
  return out.found ? Status::OK() : Status::NotFound(Slice());
}

bool Version::OverlapInLevel(int level, const Slice* smallest_user_key,
                             const Slice* largest_user_key) {
  return SomeFileOverlapsRange(vset_->icmp_, (level > 0), files_[level],
                               smallest_user_key, largest_user_key);
}

void Version::GetOverlappingInputs(int level, const InternalKey* begin,
                                   const InternalKey* end,
                                   std::vector<FileMetaData*>* inputs) {
  assert(level >= 0);
  assert(level < NumLevels());
  inputs->clear();
  Slice user_begin, user_end;
  if (begin != nullptr) {
    user_begin = begin->user_key();
  }
  if (end != nullptr) {
    user_end = end->user_key();
  }
  const Comparator* user_cmp = vset_->icmp_.user_comparator();
  for (size_t i = 0; i < files_[level].size();) {
    FileMetaData* f = files_[level][i++];
    const Slice file_start = f->smallest.user_key();
    const Slice file_limit = f->largest.user_key();
    if (begin != nullptr && user_cmp->Compare(file_limit, user_begin) < 0) {
      // "f" is completely before specified range; skip it
    } else if (end != nullptr && user_cmp->Compare(file_start, user_end) > 0) {
      // "f" is completely after specified range; skip it
    } else {
      inputs->push_back(f);
      if (level == 0) {
        // Level-0 files may overlap each other. So check if the newly added
        // file has expanded the range. If so, restart search.
        if (begin != nullptr && user_cmp->Compare(file_start, user_begin) < 0) {
          user_begin = file_start;
          inputs->clear();
          i = 0;
        } else if (end != nullptr &&
                   user_cmp->Compare(file_limit, user_end) > 0) {
          user_end = file_limit;
          inputs->clear();
          i = 0;
        }
      }
    }
  }
}

std::string Version::DebugString() const {
  std::string r;
  for (int level = 0; level < NumLevels(); level++) {
    // E.g.,
    //   --- level 1 ---
    //   17:123['a' .. 'd']
    //   20:43['e' .. 'g']
    r.append("--- level ");
    r.append(std::to_string(level));
    r.append(" ---\n");
    for (const FileMetaData* f : files_[level]) {
      r.push_back(' ');
      r.append(std::to_string(f->number));
      r.push_back(':');
      r.append(std::to_string(f->file_size));
      r.append("[");
      r.append(f->smallest.user_key().ToString());
      r.append(" .. ");
      r.append(f->largest.user_key().ToString());
      r.append("]\n");
    }
  }
  return r;
}

// A helper class so we can efficiently apply a whole sequence of edits to a
// particular state without creating intermediate Versions that contain full
// copies of the intermediate state.
class VersionSet::Builder {
 public:
  Builder(VersionSet* vset, Version* base) : vset_(vset), base_(base) {
    base_->Ref();
    levels_.resize(kNumLevels);
  }

  ~Builder() {
    for (auto& level_state : levels_) {
      for (FileMetaData* f : level_state.added_files) {
        f->refs--;
        if (f->refs <= 0) {
          delete f;
        }
      }
    }
    base_->Unref();
  }

  /// Apply all of the edits in *edit to the current state.
  void Apply(const VersionEdit* edit) {
    // Update compaction pointers
    for (const auto& [level, key] : edit->compact_pointers_) {
      vset_->compact_pointer_[level] = key.Encode().ToString();
    }

    // Delete files
    for (const auto& [level, number] : edit->deleted_files_) {
      levels_[level].deleted_files.insert(number);
    }

    // Add new files
    for (const auto& [level, meta] : edit->new_files_) {
      FileMetaData* f = new FileMetaData(meta);
      f->refs = 1;
      levels_[level].deleted_files.erase(f->number);
      levels_[level].added_files.push_back(f);
    }
  }

  /// Save the current state in *v.
  void SaveTo(Version* v) {
    auto cmp = [this](FileMetaData* f1, FileMetaData* f2) {
      int r = vset_->icmp_.Compare(f1->smallest.Encode(),
                                   f2->smallest.Encode());
      if (r != 0) return r < 0;
      return f1->number < f2->number;
    };

    for (int level = 0; level < kNumLevels; level++) {
      // Merge the set of added files with the set of pre-existing files,
      // dropping any deleted files.
      std::vector<FileMetaData*> merged = base_->files_[level];
      for (FileMetaData* f : levels_[level].added_files) {
        merged.push_back(f);
      }
      std::sort(merged.begin(), merged.end(), cmp);
      for (FileMetaData* f : merged) {
        if (levels_[level].deleted_files.count(f->number) > 0) {
          continue;  // File is deleted: do nothing
        }
        if (level > 0 && !v->files_[level].empty()) {
          // Must not overlap
          assert(vset_->icmp_.Compare(
                     v->files_[level].back()->largest.Encode(),
                     f->smallest.Encode()) < 0);
        }
        f->refs++;
        v->files_[level].push_back(f);
      }
    }
    v->level0_newest_first_ = v->files_[0];
    std::sort(v->level0_newest_first_.begin(), v->level0_newest_first_.end(),
              [](FileMetaData* a, FileMetaData* b) {
                return a->number > b->number;
              });
  }

 private:
  struct LevelState {
    std::set<uint64_t> deleted_files;
    std::vector<FileMetaData*> added_files;
  };

  VersionSet* vset_;
  Version* base_;
  std::vector<LevelState> levels_;
};

VersionSet::VersionSet(const std::string& dbname, const Options* options,
                       TableCache* table_cache,
                       const InternalKeyComparator* cmp)
    : dbname_(dbname),
      options_(options),
      env_(options->env),
      table_cache_(table_cache),
      icmp_(*cmp),
      next_file_number_(2),
      manifest_file_number_(0),  // Filled by Recover()
      last_sequence_(0),
      log_number_(0),
      dummy_versions_(this),
      current_(nullptr),
      compact_pointer_(kNumLevels) {
  AppendVersion(new Version(this));
}

VersionSet::~VersionSet() {
  current_->Unref();
  assert(dummy_versions_.next_ == &dummy_versions_);  // List must be empty
}

void VersionSet::AppendVersion(Version* v) {
  // Make "v" current
  assert(v->refs_ == 0);
  assert(v != current_);
  if (current_ != nullptr) {
    current_->Unref();
  }
  current_ = v;
  v->Ref();

  // Append to linked list
  v->prev_ = dummy_versions_.prev_;
  v->next_ = &dummy_versions_;
  v->prev_->next_ = v;
  v->next_->prev_ = v;
}

Status VersionSet::LogAndApply(VersionEdit* edit) {
  if (edit->has_log_number_) {
    assert(edit->log_number_ >= log_number_);
    assert(edit->log_number_ < next_file_number_);
  } else {
    edit->SetLogNumber(log_number_);
  }

  edit->SetNextFile(next_file_number_);
  edit->SetLastSequence(last_sequence_);

  Version* v = new Version(this);
  {
    Builder builder(this, current_);
    builder.Apply(edit);
    builder.SaveTo(v);
  }
  Finalize(v);

  // Initialize new descriptor log file if necessary by creating a temporary
  // file that contains a snapshot of the current version.
  Status s;
  std::string new_manifest_file;
  if (descriptor_log_ == nullptr) {
    assert(descriptor_file_ == nullptr);
    new_manifest_file = DescriptorFileName(dbname_, manifest_file_number_);
    s = env_->NewWritableFile(new_manifest_file, &descriptor_file_);
    if (s.ok()) {
      descriptor_log_ = std::make_unique<log::Writer>(descriptor_file_.get());
      s = WriteSnapshot(descriptor_log_.get());
    }
  }

  // Write new record to MANIFEST log
  if (s.ok()) {
    std::string record;
    edit->EncodeTo(&record);
    s = descriptor_log_->AddRecord(Slice(record));
    if (s.ok()) {
      s = descriptor_file_->Sync();
    }
  }

  // If we just created a new descriptor file, install it by writing a new
  // CURRENT file that points to it.
  if (s.ok() && !new_manifest_file.empty()) {
    s = SetCurrentFile(env_, dbname_, manifest_file_number_);
  }

  // Install the new version
  if (s.ok()) {
    AppendVersion(v);
    log_number_ = edit->log_number_;
  } else {
    v->Ref();
    v->Unref();
    if (!new_manifest_file.empty()) {
      descriptor_log_.reset();
      descriptor_file_.reset();
      env_->RemoveFile(new_manifest_file);
    }
  }

  return s;
}

Status VersionSet::Recover() {
  // Read "CURRENT" file, which contains a pointer to the current manifest.
  std::string current;
  {
    std::unique_ptr<SequentialFile> file;
    Status s = env_->NewSequentialFile(CurrentFileName(dbname_), &file);
    if (!s.ok()) return s;
    char scratch[512];
    Slice result;
    s = file->Read(sizeof(scratch), &result, scratch);
    if (!s.ok()) return s;
    current = result.ToString();
  }
  if (current.empty() || current.back() != '\n') {
    return Status::Corruption("CURRENT file does not end with newline");
  }
  current.resize(current.size() - 1);

  std::string dscname = dbname_ + "/" + current;
  std::unique_ptr<SequentialFile> file;
  Status s = env_->NewSequentialFile(dscname, &file);
  if (!s.ok()) {
    if (s.IsNotFound()) {
      return Status::Corruption("CURRENT points to a non-existent file",
                                s.ToString());
    }
    return s;
  }

  bool have_log_number = false;
  bool have_next_file = false;
  bool have_last_sequence = false;
  uint64_t next_file = 0;
  uint64_t last_sequence = 0;
  uint64_t log_number = 0;
  Builder builder(this, current_);

  {
    struct LogReporter : public log::Reader::Reporter {
      Status* status;
      void Corruption(size_t, const Status& s) override {
        if (this->status->ok()) *this->status = s;
      }
    };
    LogReporter reporter;
    reporter.status = &s;
    log::Reader reader(file.get(), &reporter, true /*checksum*/);
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch) && s.ok()) {
      VersionEdit edit;
      s = edit.DecodeFrom(record);
      if (s.ok()) {
        if (edit.has_comparator_ &&
            edit.comparator_ != icmp_.user_comparator()->Name()) {
          s = Status::InvalidArgument(
              edit.comparator_ + " does not match existing comparator ",
              icmp_.user_comparator()->Name());
        }
      }

      if (s.ok()) {
        builder.Apply(&edit);
      }

      if (edit.has_log_number_) {
        log_number = edit.log_number_;
        have_log_number = true;
      }
      if (edit.has_next_file_number_) {
        next_file = edit.next_file_number_;
        have_next_file = true;
      }
      if (edit.has_last_sequence_) {
        last_sequence = edit.last_sequence_;
        have_last_sequence = true;
      }
    }
  }
  file.reset();

  if (s.ok()) {
    if (!have_next_file) {
      s = Status::Corruption("no meta-nextfile entry in descriptor");
    } else if (!have_log_number) {
      s = Status::Corruption("no meta-lognumber entry in descriptor");
    } else if (!have_last_sequence) {
      s = Status::Corruption("no last-sequence-number entry in descriptor");
    }
  }

  if (s.ok()) {
    Version* v = new Version(this);
    builder.SaveTo(v);
    Finalize(v);
    AppendVersion(v);
    manifest_file_number_ = next_file;
    next_file_number_ = next_file + 1;
    last_sequence_ = last_sequence;
    log_number_ = log_number;
  }

  return s;
}

void VersionSet::Finalize(Version* v) {
  // Precomputed best level for next compaction
  int best_level = -1;
  double best_score = -1;

  for (int level = 0; level < kNumLevels - 1; level++) {
    double score;
    if (level == 0) {
      // We treat level-0 specially by bounding the number of files instead
      // of number of bytes: with a small write buffer, too many L0 files
      // hurt read cost more than bytes do.
      score = v->files_[level].size() /
              static_cast<double>(options_->l0_compaction_trigger);
    } else {
      // Compute the ratio of current size to size limit.
      uint64_t level_bytes = 0;
      for (FileMetaData* f : v->files_[level]) {
        level_bytes += f->file_size;
      }
      score = static_cast<double>(level_bytes) /
              MaxBytesForLevel(*options_, level);
    }

    if (score > best_score) {
      best_level = level;
      best_score = score;
    }
  }

  v->compaction_level_ = best_level;
  v->compaction_score_ = best_score;
}

Status VersionSet::WriteSnapshot(log::Writer* log) {
  // Save metadata
  VersionEdit edit;
  edit.SetComparatorName(icmp_.user_comparator()->Name());

  // Save compaction pointers
  for (int level = 0; level < kNumLevels; level++) {
    if (!compact_pointer_[level].empty()) {
      InternalKey key;
      key.DecodeFrom(Slice(compact_pointer_[level]));
      edit.SetCompactPointer(level, key);
    }
  }

  // Save files
  for (int level = 0; level < kNumLevels; level++) {
    for (FileMetaData* f : current_->files_[level]) {
      edit.AddFile(level, *f);
    }
  }

  std::string record;
  edit.EncodeTo(&record);
  return log->AddRecord(Slice(record));
}

int VersionSet::NumLevelFiles(int level) const {
  assert(level >= 0);
  assert(level < kNumLevels);
  return static_cast<int>(current_->files_[level].size());
}

int64_t VersionSet::NumLevelBytes(int level) const {
  assert(level >= 0);
  assert(level < kNumLevels);
  int64_t sum = 0;
  for (FileMetaData* f : current_->files_[level]) {
    sum += static_cast<int64_t>(f->file_size);
  }
  return sum;
}

void VersionSet::AddLiveFiles(std::set<uint64_t>* live) {
  for (Version* v = dummy_versions_.next_; v != &dummy_versions_;
       v = v->next_) {
    for (int level = 0; level < kNumLevels; level++) {
      for (FileMetaData* f : v->files_[level]) {
        live->insert(f->number);
      }
    }
  }
}

Iterator* VersionSet::MakeInputIterator(Compaction* c) {
  ReadOptions options;
  // Compaction inputs are ALWAYS checksum-verified, regardless of the
  // paranoid setting: rewriting a corrupt block into a fresh SSTable would
  // launder the damage into a file whose checksums then all pass.
  options.verify_checksums = true;
  options.fill_cache = false;

  // Level-0 files have to be merged together. For other levels, we will
  // make a concatenating iterator per level.
  const int space = (c->level() == 0 ? c->num_input_files(0) + 1 : 2);
  Iterator** list = new Iterator*[space];
  int num = 0;
  for (int which = 0; which < 2; which++) {
    if (!c->inputs_[which].empty()) {
      if (c->level() + which == 0) {
        for (FileMetaData* f : c->inputs_[which]) {
          list[num++] = table_cache_->NewIterator(options, f->number,
                                                  f->file_size);
        }
      } else {
        // Create concatenating iterator for the files from this level
        list[num++] = NewTwoLevelIterator(
            new LevelFileNumIterator(icmp_, &c->inputs_[which]),
            &GetFileIterator, table_cache_, options);
      }
    }
  }
  assert(num <= space);
  Iterator* result = NewMergingIterator(&icmp_, list, num);
  delete[] list;
  return result;
}

Compaction* VersionSet::PickCompaction() {
  // We only consider size-triggered compactions (the paper's workloads do
  // not exercise LevelDB's seek-triggered compactions).
  if (!(current_->compaction_score_ >= 1)) {
    return nullptr;
  }
  const int level = current_->compaction_level_;
  assert(level >= 0);
  assert(level + 1 < kNumLevels);
  Compaction* c = new Compaction(options_, level);

  // Pick the first file that comes after compact_pointer_[level]: this is
  // the round-robin rotation through the level's key space.
  for (FileMetaData* f : current_->files_[level]) {
    if (compact_pointer_[level].empty() ||
        icmp_.Compare(f->largest.Encode(), Slice(compact_pointer_[level])) >
            0) {
      c->inputs_[0].push_back(f);
      break;
    }
  }
  if (c->inputs_[0].empty()) {
    // Wrap-around to the beginning of the key space
    c->inputs_[0].push_back(current_->files_[level][0]);
  }

  c->input_version_ = current_;
  c->input_version_->Ref();

  // Files in level 0 may overlap each other, so pick up all overlapping ones
  if (level == 0) {
    InternalKey smallest, largest;
    GetRange(c->inputs_[0], &smallest, &largest);
    // Note that the next call will discard the file we placed in c->inputs_[0]
    // earlier and replace it with an overlapping set which will include the
    // picked file.
    current_->GetOverlappingInputs(0, &smallest, &largest, &c->inputs_[0]);
    assert(!c->inputs_[0].empty());
  }

  SetupOtherInputs(c);
  return c;
}

void VersionSet::GetRange(const std::vector<FileMetaData*>& inputs,
                          InternalKey* smallest, InternalKey* largest) {
  assert(!inputs.empty());
  smallest->Clear();
  largest->Clear();
  for (size_t i = 0; i < inputs.size(); i++) {
    FileMetaData* f = inputs[i];
    if (i == 0) {
      *smallest = f->smallest;
      *largest = f->largest;
    } else {
      if (icmp_.Compare(f->smallest.Encode(), smallest->Encode()) < 0) {
        *smallest = f->smallest;
      }
      if (icmp_.Compare(f->largest.Encode(), largest->Encode()) > 0) {
        *largest = f->largest;
      }
    }
  }
}

void VersionSet::GetRange2(const std::vector<FileMetaData*>& inputs1,
                           const std::vector<FileMetaData*>& inputs2,
                           InternalKey* smallest, InternalKey* largest) {
  std::vector<FileMetaData*> all = inputs1;
  all.insert(all.end(), inputs2.begin(), inputs2.end());
  GetRange(all, smallest, largest);
}

void VersionSet::SetupOtherInputs(Compaction* c) {
  const int level = c->level();
  InternalKey smallest, largest;
  GetRange(c->inputs_[0], &smallest, &largest);

  current_->GetOverlappingInputs(level + 1, &smallest, &largest,
                                 &c->inputs_[1]);

  // Compute the overall range covered by this compaction.
  InternalKey all_start, all_limit;
  GetRange2(c->inputs_[0], c->inputs_[1], &all_start, &all_limit);

  // See if we can grow the number of inputs in "level" without changing the
  // number of "level+1" files we pick up, bounded to keep compactions small.
  if (!c->inputs_[1].empty()) {
    std::vector<FileMetaData*> expanded0;
    current_->GetOverlappingInputs(level, &all_start, &all_limit, &expanded0);
    int64_t inputs0_size = 0, inputs1_size = 0, expanded0_size = 0;
    for (FileMetaData* f : c->inputs_[0]) inputs0_size += f->file_size;
    for (FileMetaData* f : c->inputs_[1]) inputs1_size += f->file_size;
    for (FileMetaData* f : expanded0) expanded0_size += f->file_size;
    const int64_t expanded_limit = 25 * static_cast<int64_t>(
        TargetFileSize(options_));
    if (expanded0.size() > c->inputs_[0].size() &&
        inputs1_size + expanded0_size < expanded_limit) {
      InternalKey new_start, new_limit;
      GetRange(expanded0, &new_start, &new_limit);
      std::vector<FileMetaData*> expanded1;
      current_->GetOverlappingInputs(level + 1, &new_start, &new_limit,
                                     &expanded1);
      if (expanded1.size() == c->inputs_[1].size()) {
        smallest = new_start;
        largest = new_limit;
        c->inputs_[0] = expanded0;
        c->inputs_[1] = expanded1;
        GetRange2(c->inputs_[0], c->inputs_[1], &all_start, &all_limit);
      }
    }
  }

  // Update the place where we will do the next compaction for this level.
  // We update this immediately instead of waiting for the VersionEdit to be
  // applied so that if the compaction fails, we will try a different key
  // range next time.
  compact_pointer_[level] = largest.Encode().ToString();
  c->edit_.SetCompactPointer(level, largest);
}

Compaction* VersionSet::CompactRange(int level, const InternalKey* begin,
                                     const InternalKey* end) {
  std::vector<FileMetaData*> inputs;
  current_->GetOverlappingInputs(level, begin, end, &inputs);
  if (inputs.empty()) {
    return nullptr;
  }

  Compaction* c = new Compaction(options_, level);
  c->input_version_ = current_;
  c->input_version_->Ref();
  c->inputs_[0] = inputs;
  SetupOtherInputs(c);
  return c;
}

std::string VersionSet::LevelSummary() const {
  std::string r = "files[";
  for (int level = 0; level < kNumLevels; level++) {
    r += " " + std::to_string(current_->files_[level].size());
  }
  r += " ]";
  return r;
}

Compaction::Compaction(const Options* options, int level)
    : level_(level),
      max_output_file_size_(TargetFileSize(options)),
      input_version_(nullptr),
      level_ptrs_(kNumLevels, 0) {}

Compaction::~Compaction() {
  if (input_version_ != nullptr) {
    input_version_->Unref();
  }
}

bool Compaction::IsTrivialMove() const {
  // A move is trivial when a single input file at `level` overlaps nothing
  // at `level+1`. Never trivial for merged (value_merger) tables: a move
  // would skip the fragment merge the Lazy index relies on — but since the
  // file contents are identical either way (merging only combines entries
  // within the inputs and a trivial move has exactly one input), moving is
  // still correct and we allow it.
  return (num_input_files(0) == 1 && num_input_files(1) == 0);
}

void Compaction::AddInputDeletions(VersionEdit* edit) {
  for (int which = 0; which < 2; which++) {
    for (FileMetaData* f : inputs_[which]) {
      edit->RemoveFile(level_ + which, f->number);
    }
  }
}

bool Compaction::IsBaseLevelForKey(const Slice& user_key) {
  // Maybe use binary search to find right entry instead of linear search?
  const Comparator* user_cmp =
      input_version_->vset_->icmp_.user_comparator();
  for (int lvl = level_ + 2; lvl < input_version_->NumLevels(); lvl++) {
    const std::vector<FileMetaData*>& files = input_version_->files_[lvl];
    while (level_ptrs_[lvl] < files.size()) {
      FileMetaData* f = files[level_ptrs_[lvl]];
      if (user_cmp->Compare(user_key, f->largest.user_key()) <= 0) {
        // We've advanced far enough
        if (user_cmp->Compare(user_key, f->smallest.user_key()) >= 0) {
          // Key falls in this file's range, so definitely not base level
          return false;
        }
        break;
      }
      level_ptrs_[lvl]++;
    }
  }
  return true;
}

void Compaction::ReleaseInputs() {
  if (input_version_ != nullptr) {
    input_version_->Unref();
    input_version_ = nullptr;
  }
}

}  // namespace leveldbpp
