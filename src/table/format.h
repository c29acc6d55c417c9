// On-disk SSTable framing: block handles, the footer, and the block
// read/write helpers (checksum + optional compression trailer).
//
// Layout (LevelDB-compatible structure, Figure 7 / Figure 3 of the paper):
//   [data block 1..n]
//   [primary filter meta block]
//   [secondary filter meta block per indexed attribute]   <- Embedded Index
//   [zone map meta block]                                 <- Embedded Index
//   [metaindex block]    (filter/zonemap name -> handle)
//   [index block]        (last-key -> data block handle)
//   [footer]             (metaindex handle, index handle, magic)

#ifndef LEVELDBPP_TABLE_FORMAT_H_
#define LEVELDBPP_TABLE_FORMAT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "compress/codec.h"
#include "env/env.h"
#include "env/statistics.h"
#include "util/slice.h"
#include "util/status.h"

namespace leveldbpp {

/// Pointer to a block within a file: offset + size (excluding the 5-byte
/// checksum/compression trailer).
class BlockHandle {
 public:
  // Maximum encoding length of a BlockHandle.
  enum { kMaxEncodedLength = 10 + 10 };

  BlockHandle() : offset_(~uint64_t{0}), size_(~uint64_t{0}) {}

  uint64_t offset() const { return offset_; }
  void set_offset(uint64_t offset) { offset_ = offset; }
  uint64_t size() const { return size_; }
  void set_size(uint64_t size) { size_ = size; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  uint64_t offset_;
  uint64_t size_;
};

/// Fixed-size footer at the tail of every SSTable.
class Footer {
 public:
  enum { kEncodedLength = 2 * BlockHandle::kMaxEncodedLength + 8 };

  Footer() = default;

  const BlockHandle& metaindex_handle() const { return metaindex_handle_; }
  void set_metaindex_handle(const BlockHandle& h) { metaindex_handle_ = h; }
  const BlockHandle& index_handle() const { return index_handle_; }
  void set_index_handle(const BlockHandle& h) { index_handle_ = h; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  BlockHandle metaindex_handle_;
  BlockHandle index_handle_;
};

// "ldb+" "idx!" — distinct from LevelDB's magic to avoid confusion with real
// LevelDB files.
static const uint64_t kTableMagicNumber = 0x6c64622b69647821ull;

// 1-byte compression type + 4-byte CRC of (block data + type).
static const size_t kBlockTrailerSize = 5;

/// The storage ReadBlock reads into. The caller owns it and may reuse it
/// across reads: each array only grows, so a reader that keeps one stops
/// allocating once it has held its largest block.
struct BlockBuffer {
  std::unique_ptr<char[]> raw;  // The block as stored, with its trailer
  size_t raw_capacity = 0;
  std::unique_ptr<char[]> data;  // A compressed block, decompressed
  size_t data_capacity = 0;
};

struct BlockContents {
  Slice data;           // Actual contents of data
  bool cachable;        // True iff data can be cached
  bool heap_allocated;  // True iff caller should delete[] data.data()
};

/// Read the block identified by `handle` from `file` into `buf`, verify its
/// CRC, decompress if needed. On success result->data points into `buf`
/// (or into memory the file owns, which is not cachable) and stays valid
/// until `buf` is read into again; DetachBlockContents gives it a lifetime
/// of its own. Records kBlockRead / kBlockReadBytes on `stats`.
Status ReadBlock(RandomAccessFile* file, bool verify_checksums,
                 const BlockHandle& handle, BlockBuffer* buf,
                 BlockContents* result, Statistics* stats);

/// Move the array of `buf` that `contents` points into out of `buf`, so the
/// contents outlive it: heap_allocated becomes true and the caller (or the
/// Block built on them) delete[]s it. Contents in file-owned memory are
/// left as they are.
void DetachBlockContents(BlockBuffer* buf, BlockContents* contents);

}  // namespace leveldbpp

#endif  // LEVELDBPP_TABLE_FORMAT_H_
