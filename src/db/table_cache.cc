#include "db/table_cache.h"

#include "db/filename.h"
#include "env/env.h"
#include "util/coding.h"

namespace leveldbpp {

struct TableAndFile {
  std::unique_ptr<RandomAccessFile> file;
  std::unique_ptr<Table> table;
};

static void DeleteEntry(const Slice&, void* value) {
  delete reinterpret_cast<TableAndFile*>(value);
}

TableCache::TableCache(const std::string& dbname, const Options& options,
                       int entries)
    : dbname_(dbname), options_(options), cache_(NewLRUCache(entries)) {}

TableCache::~TableCache() = default;

Status TableCache::FindTable(uint64_t file_number, uint64_t file_size,
                             Cache::Handle** handle) {
  Status s;
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  Slice key(buf, sizeof(buf));
  *handle = cache_->Lookup(key);
  if (*handle != nullptr) return s;

  // Miss. Win the right to open the file, or wait for the winner: without
  // this, concurrent readers hitting a cold file would each open + parse it
  // and insert duplicate entries (the losers' work thrown away at eviction).
  {
    std::unique_lock<std::mutex> lock(open_mu_);
    while (opening_.count(file_number) != 0) {
      opened_cv_.wait(lock);
    }
    // The winner may have inserted while we waited (or between our Lookup
    // and the lock); re-check before claiming the open.
    *handle = cache_->Lookup(key);
    if (*handle != nullptr) return s;
    opening_.insert(file_number);
  }

  std::string fname = TableFileName(dbname_, file_number);
  std::unique_ptr<RandomAccessFile> file;
  Table* table = nullptr;
  s = options_.env->NewRandomAccessFile(fname, &file);
  if (s.ok()) {
    s = Table::Open(options_, file.get(), file_size, &table);
  }
  if (s.ok()) {
    table->SetProvenance(file_number, quarantine_);
  }

  if (!s.ok()) {
    assert(table == nullptr);
    // We do not cache error results so that if the error is transient,
    // or somebody repairs the file, we recover automatically.
  } else {
    TableAndFile* tf = new TableAndFile;
    tf->file = std::move(file);
    tf->table.reset(table);
    *handle = cache_->Insert(key, tf, 1, &DeleteEntry);
  }

  {
    std::lock_guard<std::mutex> lock(open_mu_);
    opening_.erase(file_number);
  }
  opened_cv_.notify_all();
  return s;
}

Iterator* TableCache::NewIterator(const ReadOptions& options,
                                  uint64_t file_number, uint64_t file_size,
                                  Table** tableptr) {
  if (tableptr != nullptr) {
    *tableptr = nullptr;
  }

  Cache::Handle* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (!s.ok()) {
    return NewErrorIterator(s);
  }

  Table* table =
      reinterpret_cast<TableAndFile*>(cache_->Value(handle))->table.get();
  Iterator* result = table->NewIterator(options);
  Cache* cache = cache_.get();
  result->RegisterCleanup([cache, handle]() { cache->Release(handle); });
  if (tableptr != nullptr) {
    *tableptr = table;
  }
  return result;
}

Status TableCache::Pin(uint64_t file_number, uint64_t file_size,
                       Table** table, Cache::Handle** handle) {
  *table = nullptr;
  *handle = nullptr;
  Status s = FindTable(file_number, file_size, handle);
  if (s.ok()) {
    *table =
        reinterpret_cast<TableAndFile*>(cache_->Value(*handle))->table.get();
  }
  return s;
}

void TableCache::Unpin(Cache::Handle* handle) { cache_->Release(handle); }

void TableCache::Evict(uint64_t file_number) {
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  cache_->Erase(Slice(buf, sizeof(buf)));
}

TablePins::~TablePins() {
  for (const Pinned& p : pinned_) cache_->Unpin(p.handle);
}

Status TablePins::Find(uint64_t file_number, uint64_t file_size,
                       Table** table) {
  // A run of sorted keys keeps returning to the tables it pinned last.
  for (auto it = pinned_.rbegin(); it != pinned_.rend(); ++it) {
    if (it->file_number == file_number) {
      *table = it->table;
      return Status::OK();
    }
  }
  Pinned p{file_number, nullptr, nullptr};
  Status s = cache_->Pin(file_number, file_size, &p.table, &p.handle);
  if (s.ok()) pinned_.push_back(p);
  *table = p.table;
  return s;
}

}  // namespace leveldbpp
