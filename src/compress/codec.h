// Per-block compression codec.
//
// The paper uses Snappy ("the default compression strategy of LevelDB").
// This repo must build offline and from scratch, so `SimpleLZ` provides the
// same role: a fast byte-oriented LZ77 codec applied per SSTable block, and
// switchable off (Appendix C.2 compares compressed vs uncompressed blocks).
//
// Format: varint32 uncompressed-length, then a stream of ops:
//   literal: tag byte 0x00..0x7F = literal run length L (1..127), followed
//            by L bytes
//   match:   tag byte 0x80|((len-4) & 0x3F) for match length 4..67,
//            followed by a 2-byte little-endian back-offset (1..65535)

#ifndef LEVELDBPP_COMPRESS_CODEC_H_
#define LEVELDBPP_COMPRESS_CODEC_H_

#include <cstdint>
#include <string>

#include "util/slice.h"

namespace leveldbpp {

enum CompressionType : uint8_t {
  kNoCompression = 0x0,
  kSimpleLZCompression = 0x1,
};

namespace simplelz {

/// Compress input into *output (appended). Always succeeds; the caller is
/// expected to fall back to kNoCompression if the result is not smaller.
void Compress(const Slice& input, std::string* output);

/// No stream expands by more than this factor: the densest op is a 3-byte
/// match that writes 67 bytes. A length header claiming more than
/// kMaxExpansion times the compressed size is corrupt.
constexpr uint64_t kMaxExpansion = 23;

/// Exact size of the uncompressed payload, or false on malformed input.
bool GetUncompressedLength(const Slice& compressed, uint32_t* result);

/// Decompress into `output` which must have room for GetUncompressedLength
/// bytes. Returns false on malformed input.
bool Uncompress(const Slice& compressed, char* output);

}  // namespace simplelz
}  // namespace leveldbpp

#endif  // LEVELDBPP_COMPRESS_CODEC_H_
