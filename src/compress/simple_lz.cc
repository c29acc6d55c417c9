#include "compress/codec.h"

#include <cstring>

#include "util/coding.h"

namespace leveldbpp {
namespace simplelz {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 67;  // 4 + 63
constexpr size_t kMaxOffset = 65535;
constexpr int kHashBits = 13;

inline uint32_t HashQuad(const char* p) {
  uint32_t v;
  memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline void EmitLiterals(const char* p, size_t n, std::string* out) {
  while (n > 0) {
    size_t run = n < 127 ? n : 127;
    out->push_back(static_cast<char>(run));
    out->append(p, run);
    p += run;
    n -= run;
  }
}

}  // namespace

void Compress(const Slice& input, std::string* output) {
  PutVarint32(output, static_cast<uint32_t>(input.size()));
  const char* base = input.data();
  const char* ip = base;
  const char* end = base + input.size();
  const char* lit_start = ip;

  if (input.size() >= kMinMatch) {
    uint32_t table[1 << kHashBits];
    memset(table, 0xFF, sizeof(table));  // 0xFFFFFFFF = empty
    const char* match_limit = end - kMinMatch;

    while (ip <= match_limit) {
      uint32_t h = HashQuad(ip);
      uint32_t cand = table[h];
      table[h] = static_cast<uint32_t>(ip - base);
      if (cand != 0xFFFFFFFFu) {
        const char* cp = base + cand;
        size_t offset = ip - cp;
        if (offset >= 1 && offset <= kMaxOffset &&
            memcmp(cp, ip, kMinMatch) == 0) {
          // Extend the match.
          size_t len = kMinMatch;
          size_t max_len = static_cast<size_t>(end - ip);
          if (max_len > kMaxMatch) max_len = kMaxMatch;
          while (len < max_len && cp[len] == ip[len]) len++;

          EmitLiterals(lit_start, ip - lit_start, output);
          output->push_back(
              static_cast<char>(0x80 | static_cast<uint8_t>(len - kMinMatch)));
          output->push_back(static_cast<char>(offset & 0xFF));
          output->push_back(static_cast<char>((offset >> 8) & 0xFF));
          ip += len;
          lit_start = ip;
          continue;
        }
      }
      ip++;
    }
  }
  EmitLiterals(lit_start, end - lit_start, output);
}

bool GetUncompressedLength(const Slice& compressed, uint32_t* result) {
  Slice s = compressed;
  return GetVarint32(&s, result);
}

bool Uncompress(const Slice& compressed, char* output) {
  Slice s = compressed;
  uint32_t ulen;
  if (!GetVarint32(&s, &ulen)) return false;

  const char* ip = s.data();
  const char* end = ip + s.size();
  char* op = output;
  char* op_end = output + ulen;

  // Every op is checked before it writes anything. The fast copies below
  // may write up to 15 bytes past the op's own end, but only where the
  // output has that room: the next op overwrites them, and the final
  // op == op_end check rejects a stream that leaves any unwritten.
  while (ip < end) {
    uint8_t tag = static_cast<uint8_t>(*ip++);
    if ((tag & 0x80) == 0) {
      // Literal run: 16-byte chunks while both buffers have room for the
      // run rounded up to 16, one exact memcpy near either end.
      size_t run = tag;
      if (run == 0 || run > static_cast<size_t>(end - ip) ||
          run > static_cast<size_t>(op_end - op)) {
        return false;
      }
      const size_t rounded = (run + 15) & ~size_t{15};
      if (rounded <= static_cast<size_t>(end - ip) &&
          rounded <= static_cast<size_t>(op_end - op)) {
        for (size_t i = 0; i < run; i += 16) memcpy(op + i, ip + i, 16);
      } else {
        memcpy(op, ip, run);
      }
      ip += run;
      op += run;
    } else {
      // Match.
      size_t len = (tag & 0x3F) + kMinMatch;
      if (end - ip < 2) return false;
      size_t offset = static_cast<uint8_t>(ip[0]) |
                      (static_cast<size_t>(static_cast<uint8_t>(ip[1])) << 8);
      ip += 2;
      if (offset == 0 || offset > static_cast<size_t>(op - output) ||
          len > static_cast<size_t>(op_end - op)) {
        return false;
      }
      const char* from = op - offset;
      if (offset >= 8 &&
          ((len + 7) & ~size_t{7}) <= static_cast<size_t>(op_end - op)) {
        // 8-byte chunks: with offset >= 8 each chunk reads only bytes
        // already written, so a self-overlapping match still copies right.
        for (size_t i = 0; i < len; i += 8) memcpy(op + i, from + i, 8);
      } else {
        // Short offsets (RLE-style overlap) and the tail of the buffer.
        for (size_t i = 0; i < len; i++) op[i] = from[i];
      }
      op += len;
    }
  }
  return op == op_end;
}

}  // namespace simplelz
}  // namespace leveldbpp
