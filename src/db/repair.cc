// RepairDB: rebuild a usable database from whatever survives on disk.
//
// The repairer ignores the MANIFEST/CURRENT entirely (they may be missing or
// corrupt — that is usually why it is being run) and re-derives the state
// from the data files themselves:
//
//   1. Every WAL is converted to an L0 SSTable (replaying its readable
//      prefix; torn tails are dropped exactly as recovery would drop them).
//   2. Every SSTable is copy-rewritten block by block: blocks that fail
//      their checksum are dropped, everything else is carried into a fresh
//      table (which also regenerates filters and zone maps). A table that
//      cannot be opened at all is dropped.
//   3. A fresh MANIFEST + CURRENT is written describing the salvaged tables,
//      all placed at level 0 (L0 files may overlap arbitrarily; the first
//      Open drains the resulting compaction debt).
//
// Nothing readable is destroyed: originals that lost any data are archived
// under <dbname>/lost/ instead of deleted, and every salvage/drop decision
// is counted (repair.tables.salvaged / repair.tables.dropped).
//
// Some data may still be lost — a dropped block loses its records, and if a
// newer version of a key was in that block an older version from another
// file becomes visible again. Repair trades bounded, counted loss for a
// database that opens.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "db/builder.h"
#include "db/db.h"
#include "db/dbformat.h"
#include "db/filename.h"
#include "db/memtable.h"
#include "db/table_cache.h"
#include "db/version_edit.h"
#include "db/write_batch.h"
#include "env/env.h"
#include "env/statistics.h"
#include "table/table.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"

namespace leveldbpp {

namespace {

// Iterator over a materialized (internal_key, value) vector, already sorted.
// Feeds the surviving entries of a damaged table into BuildTable.
class VectorIterator : public Iterator {
 public:
  explicit VectorIterator(
      const std::vector<std::pair<std::string, std::string>>* entries)
      : entries_(entries) {}

  bool Valid() const override {
    return index_ < entries_->size();
  }
  void SeekToFirst() override { index_ = 0; }
  void SeekToLast() override {
    index_ = entries_->empty() ? 0 : entries_->size() - 1;
  }
  void Seek(const Slice&) override { index_ = 0; }  // Unused by BuildTable
  void Next() override { index_++; }
  void Prev() override { index_ = (index_ == 0) ? entries_->size() : index_ - 1; }
  Slice key() const override { return (*entries_)[index_].first; }
  Slice value() const override { return (*entries_)[index_].second; }
  Status status() const override { return Status::OK(); }

 private:
  const std::vector<std::pair<std::string, std::string>>* const entries_;
  size_t index_ = 0;
};

class Repairer {
 public:
  Repairer(const std::string& dbname, const Options& options)
      : dbname_(dbname),
        env_(options.env != nullptr ? options.env : Env::Posix()),
        icmp_(options.comparator != nullptr ? options.comparator
                                            : BytewiseComparator()),
        ipolicy_(options.filter_policy),
        options_(SanitizeOptions(options)),
        table_cache_(new TableCache(dbname, options_, 100)) {}

  ~Repairer() { delete table_cache_; }

  Status Run() {
    Status s = FindFiles();
    if (!s.ok()) return s;
    // Every rebuilt table lands at level 0, where readers assume a higher
    // file number means newer data (Version::Get probe order, the embedded
    // index's recency buckets and GetLite). Rewrite the old tables first in
    // ascending original-number order, then the WALs — whose records are
    // newer than anything flushed — so the fresh numbering preserves that
    // invariant.
    SalvageTables();
    ConvertLogFilesToTables();
    return WriteDescriptor();
  }

 private:
  Options SanitizeOptions(const Options& src) {
    Options result = src;
    result.comparator = &icmp_;
    result.filter_policy = (src.filter_policy != nullptr) ? &ipolicy_ : nullptr;
    if (result.env == nullptr) result.env = Env::Posix();
    if (!result.secondary_attributes.empty() &&
        result.attribute_extractor == nullptr) {
      result.secondary_attributes.clear();
    }
    return result;
  }

  void Record(Ticker t) {
    if (options_.statistics != nullptr) options_.statistics->Record(t);
  }

  Status FindFiles() {
    std::vector<std::string> filenames;
    Status s = env_->GetChildren(dbname_, &filenames);
    if (!s.ok()) return s;
    if (filenames.empty()) {
      return Status::IOError(dbname_, "repair found no files");
    }
    uint64_t number;
    FileType type;
    for (const std::string& f : filenames) {
      if (!ParseFileName(f, &number, &type)) continue;
      if (type == kDescriptorFile) {
        manifests_.push_back(f);
      } else {
        if (number + 1 > next_file_number_) next_file_number_ = number + 1;
        if (type == kLogFile) {
          logs_.push_back(number);
        } else if (type == kTableFile) {
          table_numbers_.push_back(number);
        }
        // kTempFile / kCurrentFile / kDBLockFile: superseded below or kept.
      }
    }
    // Deterministic salvage order (GetChildren order is unspecified).
    std::sort(logs_.begin(), logs_.end());
    std::sort(table_numbers_.begin(), table_numbers_.end());
    return Status::OK();
  }

  // Move a file aside under <dbname>/lost/ rather than deleting it: repair
  // must never destroy bytes it could not fully read.
  void ArchiveFile(const std::string& fname) {
    const std::string lost_dir = dbname_ + "/lost";
    env_->CreateDir(lost_dir);  // Ignore error: may exist already
    size_t slash = fname.rfind('/');
    std::string base =
        (slash == std::string::npos) ? fname : fname.substr(slash + 1);
    env_->RenameFile(fname, lost_dir + "/" + base);
  }

  void ConvertLogFilesToTables() {
    for (uint64_t log_number : logs_) {
      std::string fname = LogFileName(dbname_, log_number);
      bool clean_empty = false;
      bool fully_captured = false;
      Status s = ConvertLogToTable(log_number, &clean_empty, &fully_captured);
      if (s.ok()) {
        Record(kRepairTablesSalvaged);
        if (fully_captured) {
          env_->RemoveFile(fname);  // Every byte lives on in the new table
        } else {
          // The salvaged table covers only a prefix (bad records were
          // dropped); keep the original around for forensics.
          ArchiveFile(fname);
        }
      } else if (clean_empty) {
        // A rotated-but-unused WAL: zero records and zero damaged bytes.
        // Nothing was lost, so it is neither a salvage nor a drop.
        env_->RemoveFile(fname);
      } else {
        // The WAL produced no table (unreadable, or empty after dropping
        // bad records). Its bytes still go to lost/, not the bin.
        Record(kRepairTablesDropped);
        ArchiveFile(fname);
      }
    }
  }

  Status ConvertLogToTable(uint64_t log_number, bool* clean_empty,
                           bool* fully_captured) {
    struct LogReporter : public log::Reader::Reporter {
      size_t dropped_bytes = 0;
      void Corruption(size_t bytes, const Status&) override {
        dropped_bytes += bytes;
      }
    };
    std::string fname = LogFileName(dbname_, log_number);
    std::unique_ptr<SequentialFile> file;
    Status s = env_->NewSequentialFile(fname, &file);
    if (!s.ok()) return s;

    LogReporter reporter;
    log::Reader reader(file.get(), &reporter, /*checksum=*/true);
    MemTable* mem = new MemTable(icmp_, options_.secondary_attributes,
                                 options_.attribute_extractor);
    mem->Ref();
    std::string scratch;
    Slice record;
    WriteBatch batch;
    while (reader.ReadRecord(&record, &scratch)) {
      if (record.size() < 12) {
        reporter.Corruption(record.size(),
                            Status::Corruption("log record too small"));
        continue;
      }
      WriteBatchInternal::SetContents(&batch, record);
      Status insert = WriteBatchInternal::InsertInto(&batch, mem);
      if (insert.ok()) {
        const SequenceNumber last =
            WriteBatchInternal::Sequence(&batch) +
            WriteBatchInternal::Count(&batch) - 1;
        if (last > max_sequence_) max_sequence_ = last;
      }
      // A bad batch is skipped; keep salvaging the rest of the log.
    }
    file.reset();
    *clean_empty = (mem->NumEntries() == 0 && reporter.dropped_bytes == 0);
    *fully_captured = (reporter.dropped_bytes == 0);

    Status build;
    if (mem->NumEntries() > 0) {
      TableInfo info;
      info.meta.number = next_file_number_++;
      std::unique_ptr<Iterator> iter(mem->NewIterator());
      // No snapshot can be live across a repair, so collapse to newest.
      build = BuildTable(dbname_, env_, options_, icmp_, table_cache_,
                         iter.get(), kMaxSequenceNumber, &info.meta);
      if (build.ok() && info.meta.file_size > 0) {
        tables_.push_back(std::move(info));
      } else if (build.ok()) {
        build = Status::IOError("log produced an empty table");
      }
    } else {
      build = Status::IOError("log had no salvageable records");
    }
    mem->Unref();
    return build;
  }

  void SalvageTables() {
    for (uint64_t number : table_numbers_) {
      SalvageTable(number);
    }
  }

  // Copy-rewrite one table, dropping blocks that fail their checksums. The
  // rewrite regenerates index/filter/zone-map metadata from the options in
  // force, so a repaired store is fully queryable again.
  void SalvageTable(uint64_t number) {
    std::string fname = TableFileName(dbname_, number);
    uint64_t file_size = 0;
    std::unique_ptr<RandomAccessFile> file;
    Table* table = nullptr;
    Status s = env_->GetFileSize(fname, &file_size);
    if (s.ok()) s = env_->NewRandomAccessFile(fname, &file);
    if (s.ok()) s = Table::Open(options_, file.get(), file_size, &table);
    if (!s.ok()) {
      // Footer/index unreadable: nothing inside can be located.
      Record(kRepairTablesDropped);
      ArchiveFile(fname);
      return;
    }

    std::vector<std::pair<std::string, std::string>> entries;
    size_t dropped_blocks = 0;
    ReadOptions read_options;  // verify_checksums defaults on
    const size_t nblocks = table->NumDataBlocks();
    for (size_t b = 0; b < nblocks; b++) {
      std::unique_ptr<Iterator> it(
          table->NewDataBlockIterator(read_options, b));
      std::vector<std::pair<std::string, std::string>> block_entries;
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        ParsedInternalKey ikey;
        if (!ParseInternalKey(it->key(), &ikey)) continue;
        if (ikey.sequence > max_sequence_) max_sequence_ = ikey.sequence;
        block_entries.emplace_back(it->key().ToString(),
                                   it->value().ToString());
      }
      if (!it->status().ok()) {
        // Checksum/decode failure is all-or-nothing per block, so nothing
        // partial leaked into block_entries; drop the block.
        dropped_blocks++;
        continue;
      }
      for (auto& e : block_entries) entries.push_back(std::move(e));
    }
    delete table;
    file.reset();

    if (entries.empty()) {
      Record(kRepairTablesDropped);
      ArchiveFile(fname);
      return;
    }

    TableInfo info;
    info.meta.number = next_file_number_++;
    VectorIterator iter(&entries);
    s = BuildTable(dbname_, env_, options_, icmp_, table_cache_, &iter,
                   kMaxSequenceNumber, &info.meta);
    if (!s.ok() || info.meta.file_size == 0) {
      Record(kRepairTablesDropped);
      ArchiveFile(fname);
      return;
    }
    tables_.push_back(std::move(info));
    Record(kRepairTablesSalvaged);
    if (dropped_blocks > 0) {
      // Data was lost from the original; keep its bytes recoverable.
      ArchiveFile(fname);
    } else {
      env_->RemoveFile(fname);  // Fully captured in the rewrite
    }
  }

  Status WriteDescriptor() {
    // Allocate the manifest number before stamping next_file so the new
    // MANIFEST's own number is covered by it.
    const uint64_t manifest_number = next_file_number_++;

    VersionEdit edit;
    edit.SetComparatorName(icmp_.user_comparator()->Name());
    edit.SetLogNumber(0);  // Every WAL was converted or archived above
    edit.SetNextFile(next_file_number_);
    edit.SetLastSequence(max_sequence_);
    // Overlapping tables (several versions of one key, e.g. a flushed table
    // plus the WAL-derived one) must go to level 0, where readers resolve
    // recency by file number — which SalvageTables/ConvertLogFilesToTables
    // made track data age. A table disjoint from EVERY other salvaged table
    // holds the only copy of its keys, so it can sit at level 1: that keeps
    // recency-ordered scans (the embedded index's Algorithm-5 termination
    // treats each L0 file as its own newest-first bucket, but a whole level
    // as one) from ranking disjoint same-age tables as newer/older.
    const Comparator* ucmp = icmp_.user_comparator();
    for (size_t i = 0; i < tables_.size(); i++) {
      const FileMetaData& a = tables_[i].meta;
      bool overlaps = false;
      for (size_t j = 0; j < tables_.size() && !overlaps; j++) {
        if (j == i) continue;
        const FileMetaData& b = tables_[j].meta;
        overlaps =
            ucmp->Compare(a.smallest.user_key(), b.largest.user_key()) <= 0 &&
            ucmp->Compare(b.smallest.user_key(), a.largest.user_key()) <= 0;
      }
      edit.AddFile(overlaps ? 0 : 1, a);
    }

    std::string manifest_name = DescriptorFileName(dbname_, manifest_number);
    std::unique_ptr<WritableFile> manifest_file;
    Status s = env_->NewWritableFile(manifest_name, &manifest_file);
    if (!s.ok()) return s;
    {
      log::Writer manifest_log(manifest_file.get());
      std::string record;
      edit.EncodeTo(&record);
      s = manifest_log.AddRecord(record);
    }
    if (s.ok()) s = manifest_file->Sync();
    if (s.ok()) s = manifest_file->Close();
    manifest_file.reset();
    if (!s.ok()) {
      env_->RemoveFile(manifest_name);
      return s;
    }

    // The old manifests describe files that may no longer exist; archive
    // them before pointing CURRENT at the new one.
    for (const std::string& m : manifests_) {
      ArchiveFile(dbname_ + "/" + m);
    }
    return SetCurrentFile(env_, dbname_, manifest_number);
  }

  struct TableInfo {
    FileMetaData meta;
  };

  const std::string dbname_;
  Env* const env_;
  const InternalKeyComparator icmp_;
  const InternalFilterPolicy ipolicy_;
  const Options options_;  // comparator/filter_policy point at the members
  TableCache* const table_cache_;

  std::vector<std::string> manifests_;
  std::vector<uint64_t> logs_;
  std::vector<uint64_t> table_numbers_;
  std::vector<TableInfo> tables_;
  uint64_t next_file_number_ = 1;
  SequenceNumber max_sequence_ = 0;
};

}  // namespace

Status RepairDB(const std::string& dbname, const Options& options) {
  Repairer repairer(dbname, options);
  return repairer.Run();
}

}  // namespace leveldbpp
