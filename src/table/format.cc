#include "table/format.h"

#include "util/coding.h"
#include "util/crc32c.h"

namespace leveldbpp {

void BlockHandle::EncodeTo(std::string* dst) const {
  // Sanity check that all fields have been set.
  assert(offset_ != ~uint64_t{0});
  assert(size_ != ~uint64_t{0});
  PutVarint64(dst, offset_);
  PutVarint64(dst, size_);
}

Status BlockHandle::DecodeFrom(Slice* input) {
  if (GetVarint64(input, &offset_) && GetVarint64(input, &size_)) {
    return Status::OK();
  }
  return Status::Corruption("bad block handle");
}

void Footer::EncodeTo(std::string* dst) const {
  const size_t original_size = dst->size();
  metaindex_handle_.EncodeTo(dst);
  index_handle_.EncodeTo(dst);
  dst->resize(original_size + 2 * BlockHandle::kMaxEncodedLength);  // Padding
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber & 0xffffffffu));
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber >> 32));
  assert(dst->size() == original_size + kEncodedLength);
}

Status Footer::DecodeFrom(Slice* input) {
  if (input->size() < kEncodedLength) {
    return Status::Corruption("not an sstable (footer too short)");
  }

  const char* magic_ptr = input->data() + kEncodedLength - 8;
  const uint32_t magic_lo = DecodeFixed32(magic_ptr);
  const uint32_t magic_hi = DecodeFixed32(magic_ptr + 4);
  const uint64_t magic = ((static_cast<uint64_t>(magic_hi) << 32) |
                          (static_cast<uint64_t>(magic_lo)));
  if (magic != kTableMagicNumber) {
    return Status::Corruption("not an sstable (bad magic number)");
  }

  Status result = metaindex_handle_.DecodeFrom(input);
  if (result.ok()) {
    result = index_handle_.DecodeFrom(input);
  }
  if (result.ok()) {
    // We skip over any leftover data (just padding for now) in "input".
    const char* end = magic_ptr + 8;
    *input = Slice(end, input->data() + input->size() - end);
  }
  return result;
}

namespace {

// Room for n bytes in *array, growing it (and *capacity) only when needed.
char* Reserve(std::unique_ptr<char[]>* array, size_t* capacity, size_t n) {
  if (*capacity < n) {
    array->reset(new char[n]);
    *capacity = n;
  }
  return array->get();
}

}  // namespace

Status ReadBlock(RandomAccessFile* file, bool verify_checksums,
                 const BlockHandle& handle, BlockBuffer* buf,
                 BlockContents* result, Statistics* stats) {
  result->data = Slice();
  result->cachable = false;
  result->heap_allocated = false;

  // Read the block contents as well as the type/crc footer.
  const size_t n = static_cast<size_t>(handle.size());
  char* raw = Reserve(&buf->raw, &buf->raw_capacity, n + kBlockTrailerSize);
  Slice contents;
  Status s = file->Read(handle.offset(), n + kBlockTrailerSize, &contents, raw);
  if (stats != nullptr) {
    stats->Record(kBlockRead);
    stats->Record(kBlockReadBytes, n + kBlockTrailerSize);
  }
  if (!s.ok()) return s;
  if (contents.size() != n + kBlockTrailerSize) {
    return Status::Corruption("truncated block read");
  }

  // Check the crc of the type and the block contents.
  const char* data = contents.data();  // Pointer to where Read put the data
  if (verify_checksums) {
    const uint32_t crc = crc32c::Unmask(DecodeFixed32(data + n + 1));
    const uint32_t actual = crc32c::Value(data, n + 1);
    if (actual != crc) {
      if (stats != nullptr) stats->Record(kCorruptionBlocksDetected);
      return Status::Corruption("block checksum mismatch");
    }
  }

  switch (data[n]) {
    case kNoCompression:
      result->data = Slice(data, n);
      // A file that returned a pointer to its own memory keeps it live
      // while the file is open; do not double-cache it.
      result->cachable = (data == raw);
      break;
    case kSimpleLZCompression: {
      uint32_t ulength = 0;
      // Bound the claimed length before allocating for it: with checksums
      // off, a damaged header could otherwise ask for up to 4 GiB.
      if (!simplelz::GetUncompressedLength(Slice(data, n), &ulength) ||
          ulength > simplelz::kMaxExpansion * n) {
        if (stats != nullptr) stats->Record(kCorruptionBlocksDetected);
        return Status::Corruption("corrupted compressed block contents");
      }
      char* ubuf = Reserve(&buf->data, &buf->data_capacity, ulength);
      if (!simplelz::Uncompress(Slice(data, n), ubuf)) {
        if (stats != nullptr) stats->Record(kCorruptionBlocksDetected);
        return Status::Corruption("corrupted compressed block contents");
      }
      result->data = Slice(ubuf, ulength);
      result->cachable = true;
      break;
    }
    default:
      return Status::Corruption("bad block type");
  }
  return Status::OK();
}

void DetachBlockContents(BlockBuffer* buf, BlockContents* contents) {
  const char* p = contents->data.data();
  std::unique_ptr<char[]>* array = nullptr;
  size_t* capacity = nullptr;
  if (p == buf->raw.get()) {
    array = &buf->raw;
    capacity = &buf->raw_capacity;
  } else if (p == buf->data.get()) {
    array = &buf->data;
    capacity = &buf->data_capacity;
  } else {
    return;  // The file's own memory
  }
  array->release();
  *capacity = 0;
  contents->heap_allocated = true;
}

}  // namespace leveldbpp
