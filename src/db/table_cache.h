// TableCache: cache of open SSTable readers, keyed by file number.
//
// Thread-safe, and the open path is SINGLE-FLIGHT: when several readers miss
// on the same file number simultaneously (common once queries fan out onto
// the read pool), exactly one thread opens the file and the others wait for
// its cache insert instead of each opening + parsing the table redundantly.

#ifndef LEVELDBPP_DB_TABLE_CACHE_H_
#define LEVELDBPP_DB_TABLE_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "db/options.h"
#include "table/iterator.h"
#include "table/table.h"
#include "util/status.h"

namespace leveldbpp {

class TableCache {
 public:
  TableCache(const std::string& dbname, const Options& options, int entries);

  TableCache(const TableCache&) = delete;
  TableCache& operator=(const TableCache&) = delete;

  ~TableCache();

  /// Return an iterator for the specified file number (of the specified
  /// file_size bytes). If tableptr is non-null, also sets *tableptr to the
  /// Table object underlying the returned iterator (owned by the cache; do
  /// not delete; valid while the iterator is live).
  Iterator* NewIterator(const ReadOptions& options, uint64_t file_number,
                        uint64_t file_size, Table** tableptr = nullptr);

  /// Explicitly pin the opened Table for a file: *table stays valid until
  /// the returned handle is passed to Unpin. TablePins holds its pins this
  /// way; the embedded index's bucket scans pin each bucket's files.
  Status Pin(uint64_t file_number, uint64_t file_size, Table** table,
             Cache::Handle** handle);
  void Unpin(Cache::Handle* handle);

  /// Evict any entry for the specified file number (file being deleted).
  void Evict(uint64_t file_number);

  /// Attach the DB-wide quarantine registry: every table opened from now on
  /// records checksum-failed blocks there (see Table::SetProvenance).
  void SetQuarantine(BlockQuarantine* quarantine) { quarantine_ = quarantine; }

 private:
  Status FindTable(uint64_t file_number, uint64_t file_size, Cache::Handle**);

  const std::string dbname_;
  const Options& options_;
  BlockQuarantine* quarantine_ = nullptr;
  std::unique_ptr<Cache> cache_;

  // Single-flight state for FindTable: file numbers currently being opened.
  // A thread that misses while its file is in `opening_` waits on
  // `opened_cv_` and re-checks the cache instead of opening a duplicate.
  std::mutex open_mu_;
  std::condition_variable opened_cv_;
  std::set<uint64_t> opening_;
};

/// The tables one read has pinned. Find pins a file's table on first use
/// and every table stays pinned until the set is destroyed, so a point
/// read takes one table-cache reference per file it probes, and a MultiGet
/// run of sorted keys one per file for the whole run. The set also holds
/// the read's BlockMemo: the last data block its point lookups decoded,
/// which stays valid because its table stays pinned. Consecutive keys of
/// one sweep that land in the same block read it once. Not thread-safe:
/// one set per task.
class TablePins {
 public:
  explicit TablePins(TableCache* cache) : cache_(cache) {}
  ~TablePins();

  TablePins(const TablePins&) = delete;
  TablePins& operator=(const TablePins&) = delete;

  /// Set *table to the open table for the file, pinned until this set is
  /// destroyed. A failed open is returned and not remembered.
  Status Find(uint64_t file_number, uint64_t file_size, Table** table);

  /// The memo every Table::InternalGet through this set reads with.
  BlockMemo* memo() { return &memo_; }

 private:
  struct Pinned {
    uint64_t file_number;
    Table* table;
    Cache::Handle* handle;
  };

  TableCache* const cache_;
  std::vector<Pinned> pinned_;  // Searched from the most recent pin back
  BlockMemo memo_;
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_DB_TABLE_CACHE_H_
