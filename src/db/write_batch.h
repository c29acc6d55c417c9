// WriteBatch: atomic group of Put/Delete edits, serialized into the WAL as a
// single record and replayed into the memtable.

#ifndef LEVELDBPP_DB_WRITE_BATCH_H_
#define LEVELDBPP_DB_WRITE_BATCH_H_

#include <string>

#include "util/slice.h"
#include "util/status.h"

namespace leveldbpp {

class MemTable;

class WriteBatch {
 public:
  WriteBatch();
  WriteBatch(const WriteBatch&) = default;
  WriteBatch& operator=(const WriteBatch&) = default;
  ~WriteBatch();

  /// Store the mapping key->value in the database.
  void Put(const Slice& key, const Slice& value);

  /// Erase the mapping for key, if any.
  void Delete(const Slice& key);

  /// Clear all updates buffered in this batch.
  void Clear();

  /// Approximate size of the serialized batch.
  size_t ApproximateSize() const;

  /// Iterate over the batch contents.
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void Put(const Slice& key, const Slice& value) = 0;
    virtual void Delete(const Slice& key) = 0;
  };
  Status Iterate(Handler* handler) const;

 private:
  friend class WriteBatchInternal;

  std::string rep_;  // See comment in write_batch.cc for the format of rep_
};

/// Internal accessors used by the DB implementation (kept out of the public
/// WriteBatch surface).
class WriteBatchInternal {
 public:
  static int Count(const WriteBatch* batch);
  static void SetCount(WriteBatch* batch, int n);
  static uint64_t Sequence(const WriteBatch* batch);
  static void SetSequence(WriteBatch* batch, uint64_t seq);
  static Slice Contents(const WriteBatch* batch) { return Slice(batch->rep_); }
  static size_t ByteSize(const WriteBatch* batch) { return batch->rep_.size(); }
  static void SetContents(WriteBatch* batch, const Slice& contents);
  /// Replay the batch into a memtable, assigning consecutive sequence
  /// numbers starting at Sequence(batch). Every record becomes its own
  /// version, in a ValueMerger DB too: its fragments merge at flush,
  /// compaction and read (value_merger.h), never on insert. So WAL replay
  /// reproduces the exact memtable state.
  static Status InsertInto(const WriteBatch* batch, MemTable* memtable);
  static void Append(WriteBatch* dst, const WriteBatch* src);
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_DB_WRITE_BATCH_H_
