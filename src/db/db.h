// DB: the public key-value store interface (LevelDB surface).
//
// Secondary-index operations (LOOKUP / RANGELOOKUP with the five index
// variants) live one layer up, in core/secondary_db.h, which composes one or
// more DB instances.

#ifndef LEVELDBPP_DB_DB_H_
#define LEVELDBPP_DB_DB_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "db/options.h"
#include "table/iterator.h"
#include "util/slice.h"
#include "util/status.h"

namespace leveldbpp {

class WriteBatch;

/// Handle to a consistent, read-only view of the store as of the moment it
/// was acquired. Obtain via DB::GetSnapshot(), hand it to reads through
/// ReadOptions::snapshot, and return it with DB::ReleaseSnapshot() — a live
/// handle pins old record versions through compaction, so holding one
/// forever retards space reclamation.
class Snapshot {
 protected:
  virtual ~Snapshot();
};

/// Streaming source for IngestExternalFiles: each call fills *key/*value
/// with the next record and returns true, or returns false when exhausted.
/// Keys must arrive in strictly increasing user-key order.
using IngestFeed = std::function<bool(std::string* key, std::string* value)>;

/// What one IngestExternalFiles call did.
struct IngestStats {
  uint64_t files = 0;      // SSTables built and spliced into the version
  uint64_t keys = 0;       // records written
  uint64_t bytes = 0;      // total bytes of the new SSTables
  uint64_t first_seq = 0;  // sequence number assigned to the first record
  uint64_t last_seq = 0;   // ... and the last (first_seq + keys - 1)
};

class DB {
 public:
  /// Open the database named `name`. Stores a heap-allocated database in
  /// *dbptr on success; the caller owns it.
  static Status Open(const Options& options, const std::string& name,
                     DB** dbptr);

  DB() = default;
  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;
  virtual ~DB();

  /// Set the database entry for key to value.
  virtual Status Put(const WriteOptions& options, const Slice& key,
                     const Slice& value) = 0;

  /// Remove the database entry (if any) for key. It is not an error if the
  /// key did not exist.
  virtual Status Delete(const WriteOptions& options, const Slice& key) = 0;

  /// Apply the specified updates to the database atomically.
  virtual Status Write(const WriteOptions& options, WriteBatch* updates) = 0;

  /// If the database contains an entry for key, store the corresponding
  /// value in *value. Returns NotFound if there is no entry.
  virtual Status Get(const ReadOptions& options, const Slice& key,
                     std::string* value) = 0;

  /// Batched point lookup: for each keys[i], (*values)[i] and
  /// (*statuses)[i] receive what Get(options, keys[i], &value) would have
  /// produced, against one consistent snapshot of the store. Returns the
  /// first per-key error that is not NotFound (OK otherwise). With
  /// Options::read_parallelism > 1 the keys are resolved in parallel.
  virtual Status MultiGet(const ReadOptions& options,
                          const std::vector<Slice>& keys,
                          std::vector<std::string>* values,
                          std::vector<Status>* statuses) = 0;

  /// Heap-allocated bidirectional iterator over the DB's user keys (newest
  /// visible version of each key; deletions hidden). Caller owns it and
  /// must delete it before the DB. The iterator observes a consistent view:
  /// writes issued after creation are invisible to it. Pass
  /// ReadOptions::snapshot to pin the view to an earlier GetSnapshot().
  virtual Iterator* NewIterator(const ReadOptions& options) = 0;

  /// A handle to the current state of the DB: reads through it (via
  /// ReadOptions::snapshot) observe exactly the writes acknowledged before
  /// this call. The caller must eventually ReleaseSnapshot() it.
  virtual const Snapshot* GetSnapshot() = 0;

  /// Release a snapshot acquired from this DB, unpinning the record
  /// versions it held through compaction. The handle is invalid afterwards.
  virtual void ReleaseSnapshot(const Snapshot* snapshot) = 0;

  /// DB implementations export properties about their state via this
  /// method; returns true iff `property` is understood.
  ///   "leveldbpp.num-files-at-level<N>"
  ///   "leveldbpp.sstables"  (multi-line dump)
  ///   "leveldbpp.total-bytes"
  ///   "leveldbpp.approximate-memory-usage"
  virtual bool GetProperty(const Slice& property, std::string* value) = 0;

  /// Compact the underlying storage for the key range [*begin, *end]
  /// (nullptr = unbounded). Drives compaction until the range is fully
  /// merged downward.
  virtual void CompactRange(const Slice* begin, const Slice* end) = 0;

  /// Attempt to clear a sticky background error and resume writes.
  /// Transient errors (I/O failures that may have gone away, e.g. a full
  /// disk after space was freed) are cleared: the WAL is rotated to a fresh
  /// file and pending flush/compaction work is restarted. Permanent errors
  /// (corruption) stay sticky and are returned unchanged — run RepairDB.
  /// Returns OK if the database is writable afterwards.
  virtual Status Resume() { return Status::OK(); }

  /// Bulk load: build SSTables directly from `feed`'s sorted stream via the
  /// table builder and splice them into the version at the deepest level
  /// they don't overlap, bypassing the memtable and the WAL entirely. Each
  /// record receives a fresh sequence number (newer than every existing
  /// write), and the MANIFEST commit makes the whole ingest atomic and
  /// durable — after a crash either all spliced files are visible or none.
  /// Requirements: keys strictly increasing; no concurrent writers for the
  /// duration of the call (concurrent reads are fine). InvalidArgument on
  /// unsorted input or an overlapping concurrent ingest. `stats` (optional)
  /// reports what was built. See DESIGN.md "Ingestion".
  virtual Status IngestExternalFiles(const IngestFeed& feed,
                                     IngestStats* stats) {
    (void)feed;
    (void)stats;
    return Status::NotSupported("IngestExternalFiles");
  }
};

/// Destroy the contents of the specified database (files and directory).
Status DestroyDB(const std::string& name, const Options& options);

/// Best-effort salvage of a database that fails to open (lost or corrupt
/// MANIFEST/CURRENT, damaged tables). Scans the directory for SSTables and
/// WALs, converts salvageable WALs to tables, drops tables (or individual
/// blocks) that fail their checksums, archives unreadable files under
/// `<name>/lost/`, and writes a fresh MANIFEST + CURRENT describing what
/// survived. Some data may be lost, but never silently: drops are counted in
/// options.statistics (repair.tables.salvaged / repair.tables.dropped).
/// The database must not be open while RepairDB runs.
Status RepairDB(const std::string& name, const Options& options);

}  // namespace leveldbpp

#endif  // LEVELDBPP_DB_DB_H_
