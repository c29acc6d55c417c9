// Block: immutable, decoded block with a forward iterator supporting
// restart-point binary search.

#ifndef LEVELDBPP_TABLE_BLOCK_H_
#define LEVELDBPP_TABLE_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "table/format.h"
#include "table/iterator.h"

namespace leveldbpp {

class Comparator;

class Block {
 public:
  /// Initialize the block with the specified contents.
  explicit Block(const BlockContents& contents);

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  ~Block();

  size_t size() const { return size_; }

  /// New forward iterator over the block's entries.
  Iterator* NewIterator(const Comparator* comparator);

  /// Point seek without an iterator: find the first entry whose key is at
  /// or past `target`. Returns true with *key and *value set when there is
  /// one; *key is rebuilt in `key_buf`, which the caller owns and may reuse
  /// (so a reused buffer allocates nothing), and *value points into the
  /// block. Returns false when every key sorts before `target`, with
  /// *status set to Corruption if the block does not parse.
  bool Seek(const Comparator* comparator, const Slice& target,
            std::string* key_buf, Slice* key, Slice* value,
            Status* status) const;

 private:
  class Iter;

  uint32_t NumRestarts() const;

  const char* data_;
  size_t size_;
  uint32_t restart_offset_;  // Offset in data_ of restart array
  bool owned_;               // Block owns data_[]
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_TABLE_BLOCK_H_
