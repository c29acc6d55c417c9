// Table: immutable SSTable reader.
//
// Beyond the standard LevelDB surface (iterator + point get with bloom
// pruning), the reader exposes the Embedded-Index scan primitives the core
// layer uses for secondary LOOKUP / RANGELOOKUP:
//   * per-block secondary bloom probe,
//   * per-block / per-file zone-map overlap checks,
//   * direct iteration of one data block by ordinal,
//   * a no-I/O primary-key presence probe (backing GetLite).
//
// The point lookup (InternalGet) builds no iterator: it point-seeks the
// index block and the data block, and without a block cache decodes the
// data block into the caller's BlockMemo, which keeps it for the next
// lookup of the same sweep.

#ifndef LEVELDBPP_TABLE_TABLE_H_
#define LEVELDBPP_TABLE_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "db/options.h"
#include "env/env.h"
#include "table/block.h"
#include "table/format.h"
#include "table/iterator.h"
#include "util/status.h"

namespace leveldbpp {

class BlockQuarantine;
class Table;

/// The last data block a sweep of point lookups decoded, with the buffers
/// it was read into and the key scratch of their seeks. Table::InternalGet
/// serves a lookup that lands in the same block of the same table from it
/// instead of reading, checksumming and decompressing the block again;
/// only a block that passed every check is kept. Keyed by the Table's
/// address, so every table a memo has seen must stay open while the memo
/// is in use (TablePins holds one, and pins every table it reads), and a
/// sweep reads with one ReadOptions throughout. Not thread-safe: one memo
/// per sweep.
struct BlockMemo {
  void Clear() {
    table = nullptr;
    block.reset();
  }

  const Table* table = nullptr;  // Null: nothing kept
  uint64_t offset = 0;
  std::optional<Block> block;  // Over `buf`'s contents
  BlockBuffer buf;
  std::string key_buf;  // Key scratch for the point seeks
};

class Table {
 public:
  /// Open a table over [0, file_size) of `file`. On success stores a
  /// heap-allocated table in *table; the client must delete it. Does not
  /// take ownership of *file, which must outlive the table.
  static Status Open(const Options& options, RandomAccessFile* file,
                     uint64_t file_size, Table** table);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  ~Table();

  /// Iterator over the whole table (two-level; blocks loaded lazily).
  Iterator* NewIterator(const ReadOptions&) const;

  /// Point lookup: if the table may contain an entry >= `k` in the block
  /// that could hold `k`, invoke handle_result(arg, key, value) on the first
  /// such entry. Applies the primary bloom filter first. Without a block
  /// cache the data block is read through `memo` (see BlockMemo); with one,
  /// through the cache, and `memo` lends only its key scratch.
  Status InternalGet(const ReadOptions&, const Slice& key, BlockMemo* memo,
                     void* arg,
                     void (*handle_result)(void* arg, const Slice& k,
                                           const Slice& v));

  /// No-I/O presence probe (GetLite): consult only the in-memory index
  /// block and primary bloom filter. Returns false iff the key is
  /// definitely absent from this table.
  bool KeyMayExistNoIO(const Slice& key) const;

  // ---- Embedded-Index scan surface ----

  /// Number of data blocks in the table.
  size_t NumDataBlocks() const;

  /// May data block `block_idx` contain a record whose attribute `attr`
  /// equals `value`? Uses the secondary bloom AND the block zone map.
  /// Records filter/zone-map effectiveness tickers on the configured stats.
  bool SecondaryBlockMayContain(const std::string& attr, const Slice& value,
                                size_t block_idx) const;

  /// May data block `block_idx` contain a value of `attr` in [lo, hi]?
  /// (Zone maps only — blooms cannot answer ranges.)
  bool SecondaryBlockMayOverlap(const std::string& attr, const Slice& lo,
                                const Slice& hi, size_t block_idx) const;

  /// File-level zone-map probe: may any block contain `attr` in [lo, hi]?
  bool SecondaryFileMayOverlap(const std::string& attr, const Slice& lo,
                               const Slice& hi) const;

  /// Ordinal of the data block InternalGet(`key`) would read (NumDataBlocks()
  /// if `key` sorts past the last block). Seeks only the in-memory index.
  size_t BlockIndexForKey(const Slice& key) const;

  /// Iterator over data block `block_idx`. Caller deletes.
  Iterator* NewDataBlockIterator(const ReadOptions&, size_t block_idx) const;

  /// Attach the table's identity and the DB-wide quarantine registry
  /// (called by TableCache right after Open). With a registry attached,
  /// non-paranoid reads record checksum-failed blocks in it — and
  /// InternalGet treats such a block as empty so the lookup can fall
  /// through to older levels — instead of failing the query.
  void SetProvenance(uint64_t file_number, BlockQuarantine* quarantine);

 private:
  struct Rep;

  static Iterator* BlockReader(void*, const ReadOptions&, const Slice&);

  /// A data block of its own (*cache_handle null: the caller deletes
  /// *block) or, with a block cache, a cached one (release *cache_handle).
  Status LoadBlock(const ReadOptions&, const BlockHandle& handle,
                   Block** block, Cache::Handle** cache_handle) const;

  /// Record a data block whose read failed with `s` in the quarantine
  /// registry, if one is attached and `s` is a Corruption.
  void NoteDamagedBlock(const Status& s, uint64_t offset) const;

  explicit Table(Rep* rep) : rep_(rep) {}

  void ReadMeta(const class Footer& footer);
  void ReadFilter(const Slice& filter_handle_value,
                  class FilterBlockReader** reader, const char** data_out,
                  const class FilterPolicy* policy);
  void DecodeDataBlockHandles();
  size_t BlockIndexForOffset(uint64_t offset) const;

  Rep* const rep_;
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_TABLE_TABLE_H_
