// MemTable: in-memory write buffer backed by a skiplist over internal keys.
//
// When the DB indexes secondary attributes (Embedded Index), the memtable
// additionally maintains an in-memory ordered index (std::multimap — a
// red-black tree, standing in for the paper's "in-memory B-tree on the
// secondary attribute(s)") from attribute value to record, so secondary
// LOOKUP / RANGELOOKUP can query unflushed data.

#ifndef LEVELDBPP_DB_MEMTABLE_H_
#define LEVELDBPP_DB_MEMTABLE_H_

#include <atomic>
#include <functional>
#include <map>
#include <shared_mutex>
#include <string>
#include <vector>

#include "db/dbformat.h"
#include "db/skiplist.h"
#include "table/attribute_extractor.h"
#include "table/iterator.h"
#include "util/arena.h"

namespace leveldbpp {

class MemTable {
 public:
  /// MemTables are reference counted. The initial reference count is zero
  /// and the caller must call Ref() at least once.
  /// `attributes`/`extractor` may be empty/null for tables with no embedded
  /// secondary index (index tables, plain stores).
  explicit MemTable(const InternalKeyComparator& comparator,
                    std::vector<std::string> attributes = {},
                    const AttributeExtractor* extractor = nullptr);

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  // Ref counting is atomic: readers pin a memtable under the DB mutex but
  // may drop their pin from any thread (e.g. iterator cleanups) without it.
  void Ref() { refs_.fetch_add(1, std::memory_order_relaxed); }
  void Unref() {
    int previous = refs_.fetch_sub(1, std::memory_order_acq_rel);
    assert(previous >= 1);
    if (previous == 1) {
      delete this;
    }
  }

  /// Approximation of the bytes of data in use by this structure (drives
  /// the flush trigger).
  size_t ApproximateMemoryUsage();

  /// Iterator over internal keys, sorted per InternalKeyComparator.
  Iterator* NewIterator();

  /// Add an entry that maps key to value at the specified sequence number
  /// and with the specified type (value or deletion tombstone).
  void Add(SequenceNumber seq, ValueType type, const Slice& key,
           const Slice& value);

  /// If memtable contains a value for key, store it in *value and return
  /// true. If it contains a deletion for key, store NotFound() in *status
  /// and return true. Else return false.
  bool Get(const LookupKey& key, std::string* value, Status* s);

  /// Newest version of `user_key` with sequence <= max_seq, regardless of
  /// type. Returns false if the memtable has no such entry. Used by point
  /// reads and GetLite (with a snapshot's sequence as the ceiling).
  bool GetNewest(const Slice& user_key, std::string* value,
                 SequenceNumber* seq, bool* is_deletion,
                 SequenceNumber max_seq = kMaxSequenceNumber);

  /// One memtable's history of a key: its versions visible at a sequence,
  /// newest first, down to the first tombstone. The values point into the
  /// memtable and stay valid while it is referenced.
  struct Versions {
    std::vector<Slice> values;      // The values above the first tombstone
    SequenceNumber newest_seq = 0;  // values[0]'s sequence
    bool tombstone = false;         // The history ends at a tombstone
    SequenceNumber tombstone_seq = 0;
  };

  /// Fill *out with the versions of `user_key` with sequence <= max_seq,
  /// from one skiplist seek. Returns false if the memtable has none. Used by
  /// fragment reads (DBImpl::GetFragments): a ValueMerger DB's memtable
  /// keeps one version per write, and its reader merges them.
  bool GetVersions(const Slice& user_key, SequenceNumber max_seq,
                   Versions* out);

  /// Match callback: (user key, sequence, record value).
  using SecondaryMatchFn =
      std::function<void(const Slice&, SequenceNumber, const Slice&)>;

  /// Invoke `fn` for every kTypeValue entry whose `attr` value lies in
  /// [lo, hi] (inclusive). Entries superseded by a newer version are still
  /// reported; callers perform the validity check, as all index variants in
  /// the paper do.
  void SecondaryLookup(const std::string& attr, const Slice& lo,
                       const Slice& hi, const SecondaryMatchFn& fn) const;

  /// Number of entries added.
  uint64_t NumEntries() const {
    return num_entries_.load(std::memory_order_relaxed);
  }

 private:
  friend class MemTableIterator;

  struct KeyComparator {
    const InternalKeyComparator comparator;
    explicit KeyComparator(const InternalKeyComparator& c) : comparator(c) {}
    int operator()(const char* a, const char* b) const;
  };

  typedef SkipList<const char*, KeyComparator> Table;

  ~MemTable();  // Private since only Unref() should be used to delete it

  KeyComparator comparator_;
  std::atomic<int> refs_;
  Arena arena_;
  Table table_;  // Skiplist: single writer, lock-free concurrent readers.
  std::atomic<uint64_t> num_entries_;

  std::vector<std::string> attributes_;
  const AttributeExtractor* extractor_;
  // Per attribute: attr value -> pointer to the skiplist entry buffer.
  // Lookup decodes key/seq/value from the entry. Unlike the skiplist, the
  // multimap is not safe for concurrent read/insert, so it has its own
  // reader-writer lock (writers are already serialized by the writer queue).
  mutable std::shared_mutex secondary_mutex_;
  std::vector<std::multimap<std::string, const char*>> secondary_;
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_DB_MEMTABLE_H_
